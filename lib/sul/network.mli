(** Simulated datagram channel between the Adapter and an
    Implementation.

    The paper runs over real sockets where latency and loss introduce
    environmental nondeterminism that the nondeterminism check must
    filter out; this channel reproduces those effects deterministically
    from a seed so tests and benches can inject faults on demand. *)

type config = {
  loss : float;  (** probability a datagram is dropped *)
  duplicate : float;  (** probability a datagram is delivered twice *)
  corrupt : float;  (** probability one byte of the payload is flipped *)
}

val reliable : config
(** No loss, no duplication, no corruption. *)

val lossy : float -> config
(** [lossy p]: datagrams dropped with probability [p]. *)

type t

val create : ?config:config -> ?seed:int64 -> Rng.t -> t
(** [seed], when given, is attached to every emitted fault event so a
    trace identifies the reproducing run. *)

val config : t -> config
val set_config : t -> config -> unit

val transmit : t -> string -> string list
(** Deliveries for one datagram: [] when lost, one element normally,
    two when duplicated; payload possibly corrupted. Each fault
    increments a [net.*] counter in {!Prognosis_obs.Metrics.default}
    and, when tracing is on, emits a [net.loss] / [net.duplicate] /
    [net.corrupt] event carrying the payload byte count and seed. *)

val transmitted : t -> int
(** Datagrams handed to {!transmit} (the [net.transmitted] counter). *)

val transmitted_bytes : t -> int
(** Their total length in bytes, before any fault (the
    [net.transmitted_bytes] counter). *)

val dropped : t -> int
val duplicated : t -> int
val corrupted : t -> int
