(** Simulated MiniDTLS record protection.

    Built on the same primitive as the QUIC simulation,
    {!Prognosis_sul.Sim_crypto}: an authenticated stream cipher keyed
    per direction from a master secret, which is derived from the
    handshake randoms and the client's premaster secret. The keystream
    is seeded from (key, epoch, seq) and the tag binds key, epoch, seq
    and plaintext. The shape is faithful (no keys → no decryption;
    tampering fails authentication); the arithmetic is NOT real
    cryptography. *)

type t

val create : unit -> t

val derive_master :
  t -> client_random:string -> server_random:string -> premaster:string -> unit
(** Install epoch-1 keys from the handshake inputs: both direction keys
    and both {!verify_data} bodies are derived here, once. *)

val ready : t -> bool

type direction = Client_write | Server_write

val tag_length : int

val seal : t -> direction -> epoch:int -> seq:int -> string -> string option
val open_ : t -> direction -> epoch:int -> seq:int -> string -> string option

val verify_data : t -> direction -> string
(** The Finished message body each side must present (a MAC over the
    master secret, distinct per direction). Empty string when keys are
    not installed. *)
