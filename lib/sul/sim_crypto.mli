(** The record-protection primitive of the simulated stacks: QUIC's
    [Quic_crypto] and DTLS's [Dtls_crypto] both build on it. A
    non-cryptographic PRF (FNV-1a over native ints, finalized by a
    splitmix mixer) drives an authenticated keystream cipher. The shape
    is faithful — without the right key a record does not open, and a
    flipped bit fails authentication — but this is NOT real
    cryptography. A hash state is a plain [int], so callers absorb key,
    nonce and header with the [fold_*] functions without allocating. *)

val fnv_basis : int
(** The empty hash state. *)

val fold_sub : int -> string -> int -> int -> int
(** [fold_sub h s off len] absorbs [s[off, off + len)] eight bytes per
    step, every bit of it: a whole 8-byte lane enters as a native int,
    and a lane whose top bit (bit 7 of its eighth byte) is set takes
    one more step. Trailing bytes enter one at a time. *)

val fold_string : int -> string -> int
(** [fold_sub] over the whole string. *)

val fold_concat : int -> string list -> int
(** [fold_concat h parts] is [fold_string h (String.concat "" parts)],
    without building the concatenation. *)

val fold_int : int -> int -> int
(** Absorbs an int, all 63 bits, as two 32-bit halves. *)

val fold_byte : int -> int -> int

val hash : string -> int
(** [hash s] is the finalized hash of [s] alone. *)

val derive_from : int -> string -> string
(** The key-schedule step: [derive_from h label] is the 8-byte hash of
    [secret ^ "/" ^ label], where [h] is the secret's absorbed state
    ([fold_string fnv_basis secret], or {!fold_concat} of its parts), so
    a secret is never materialized. *)

val derive_key : int -> string -> int
(** [derive_key h label] is [fold_string fnv_basis (derive_from h label)]:
    a derived key as the absorbed state records start from, without
    materializing its bytes. *)

val tag_length : int
(** 8: the authentication tag appended by {!seal}. *)

val seal : stream:int -> auth:int -> Bytes.t -> int -> int -> unit
(** [seal ~stream ~auth buf off len] seals the plaintext in
    [buf[off, off + len)] in place: it becomes the keystream-XORed
    ciphertext, and the tag fills the {!tag_length} bytes after it.
    Whatever precedes [off] (a header) is left as it is, so a packet is
    built and sealed in one buffer. [stream] seeds the keystream;
    [auth] is the tag's state before the plaintext. Both should have
    absorbed the key and the record's nonce, [auth] also any header the
    tag binds.
    @raise Invalid_argument when the slice and its tag do not fit. *)

val open_ : stream:int -> auth:int -> string -> int -> int -> string option
(** [open_ ~stream ~auth data off len] is the inverse of {!seal} under
    the same states, read straight from the sealed slice
    [data[off, off + len)] (ciphertext, then tag): the plaintext, or
    [None] when the slice is shorter than a tag or the tag does not
    match (one whole-word comparison, no early exit).
    @raise Invalid_argument when the slice is out of bounds. *)
