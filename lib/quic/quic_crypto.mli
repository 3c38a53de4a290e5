(** Simulated QUIC packet protection.

    The paper's central argument for reference-implementation-based
    concretization is that QUIC's key schedule makes hand-writing a
    mapper intractable: packets are encrypted with keys derived from
    handshake secrets, so the Adapter must run real protocol logic.
    This module reproduces that structure — per-level secrets (initial
    keys derived from the client's destination connection id, handshake
    and application keys derived from randoms exchanged in CRYPTO
    frames), per-direction keys, an authenticated stream cipher — on
    the shared primitive {!Prognosis_sul.Sim_crypto}: the keystream is
    seeded from (key, packet number) and the tag binds key, packet
    number, header and plaintext. The *shape* is faithful: a receiver
    without the right per-level secret cannot decode a packet, and
    tampered ciphertext fails authentication. This is NOT real
    cryptography and offers no confidentiality. *)

type level = Initial_level | Handshake_level | Application_level

val level_to_string : level -> string

type direction = Client_to_server | Server_to_client

type t
(** A mutable key schedule tracking which secrets are available. *)

val create : unit -> t

val install_initial : t -> dcid:string -> unit
(** Derive initial secrets from the client's first destination
    connection id (both endpoints can compute these, as in RFC 9001). *)

val install_handshake : t -> client_random:string -> server_random:string -> unit
(** Derive handshake secrets once ClientHello/ServerHello randoms have
    been exchanged; application secrets are derived at the same time
    (one-round-trip handshake). *)

val drop_level : t -> level -> unit
(** Discard keys for a level (e.g. initial keys after handshake). *)

val update_application : t -> unit
(** Key update (RFC 9001 §6): replace the application secrets with the
    next generation (derived from the current ones) and flip the key
    phase. Both endpoints performing the same number of updates stay in
    sync. No-op when application keys are not installed. *)

val application_phase : t -> int
(** Number of key updates performed (the key-phase bit is its parity). *)

val has_level : t -> level -> bool

val tag_length : int

val seal_into :
  t -> level -> direction -> pn:int -> Bytes.t -> header_len:int -> bool
(** [seal_into t level dir ~pn buf ~header_len] protects a packet built
    in one buffer: the header in [buf[0, header_len)], the plaintext
    after it, and {!tag_length} spare bytes at the end. The plaintext is
    encrypted in place and the tag (binding header and packet number)
    fills the spare bytes. [false], with [buf] untouched, when the
    level's keys are not installed. *)

val seal :
  t -> level -> direction -> pn:int -> header:string -> string -> string option
(** {!seal_into} for a separate header and plaintext: the ciphertext
    and tag alone, or [None] when the level's keys are not installed. *)

val open_ :
  t ->
  level ->
  direction ->
  pn:int ->
  string ->
  header_len:int ->
  len:int ->
  string option
(** [open_ t level dir ~pn data ~header_len ~len] decrypts and verifies
    the sealed [data[header_len, header_len + len)] against the header
    [data[0, header_len)], straight from the datagram; [None] on missing
    keys or authentication failure.
    @raise Invalid_argument when the slices are out of bounds. *)

val open_updated_application :
  t ->
  direction ->
  pn:int ->
  string ->
  header_len:int ->
  len:int ->
  string option
(** {!open_} of a 1-RTT packet against the *next* key generation without
    committing the update (the receiver side of a peer-initiated key
    update: commit with {!update_application} on success). *)

val stateless_reset_token : dcid:string -> string
(** The 16-byte stateless reset token associated with a connection id
    (derivable by both endpoints in this simulation). *)

val hash64 : string -> int64
(** The underlying (non-cryptographic) 64-bit hash, exposed for tests. *)
