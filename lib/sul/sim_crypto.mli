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

val fold_string : int -> string -> int
(** Absorbs a string eight bytes per step, every bit of it: a whole
    8-byte lane enters as a native int, and a lane whose top bit (bit 7
    of its eighth byte) is set takes one more step. *)

val fold_int : int -> int -> int
(** Absorbs an int, all 63 bits, as two 32-bit halves. *)

val fold_byte : int -> int -> int

val hash : string -> int
(** [hash s] is the finalized hash of [s] alone. *)

val derive : string -> string -> string
(** [derive secret label] is the 8-byte hash of [secret ^ "/" ^ label]:
    the key-schedule step. *)

val tag_length : int
(** 8: the authentication tag appended by {!seal}. *)

val seal : stream:int -> auth:int -> string -> string
(** [seal ~stream ~auth plaintext] is the keystream-XORed plaintext
    followed by the tag, in one buffer. [stream] seeds the keystream;
    [auth] is the tag's state before the plaintext. Both should have
    absorbed the key and the record's nonce, [auth] also any header the
    tag binds. *)

val open_ : stream:int -> auth:int -> string -> string option
(** The inverse of {!seal} under the same states: the plaintext, or
    [None] when the input is shorter than a tag or the tag does not
    match (one whole-word comparison, no early exit). *)
