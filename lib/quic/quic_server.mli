(** The simulated QUIC server: the System Under Learning for the
    paper's §6.2 case studies.

    One engine implements the full observable lifecycle — address
    validation (Retry), the cryptographic handshake over CRYPTO frames,
    HANDSHAKE_DONE signalling, stream data with connection- and
    stream-level flow control, protocol-violation handling
    (CONNECTION_CLOSE) and post-close Stateless Resets — parameterized
    by a {!Quic_profile.t} that injects the vendor-specific behaviours
    the paper reports. The server is driven exclusively through encoded
    datagrams ({!handle_datagram}), preserving the closed-box
    assumption; the source port accompanies each datagram because
    Retry-based address validation depends on it (Issue 3). *)

type t

val create : ?profile:Quic_profile.t -> Prognosis_sul.Rng.t -> t
(** Default profile: {!Quic_profile.val-quiche_like}. The RNG persists
    across resets (it is the server's entropy source, used for
    connection ids, handshake randoms and the Issue-2 probabilistic
    resets). *)

val reset : t -> unit
(** Discard the current connection and await a fresh one. *)

val profile : t -> Quic_profile.t

val phase_name : t -> string
(** Current lifecycle phase, for tests and diagnostics. *)

val scid : t -> string
(** The server's current connection id (empty before any packet). *)

val parse_client_hello : string -> (string * int option * int option) option
(** The ClientHello's CRYPTO data,
    ["CH:<random>;md=<max_data>;msd=<max_stream_data>"]: the random and
    the two transport parameters ([None] when absent or not an integer;
    a later parameter overrides an earlier one). [None] when the data
    does not start with a ClientHello. *)

val handle_datagram : t -> port:int -> string -> string list
(** Process one datagram arriving from the given UDP source port and
    return response datagrams. *)
