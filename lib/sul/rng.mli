(** Deterministic pseudo-random numbers (splitmix64).

    Every source of randomness in the simulated protocol stacks and the
    learning harness draws from one of these generators, so whole
    experiments are reproducible from a single seed. *)

type t

val create : int64 -> t
val copy : t -> t

val split : t -> t
(** Independent child generator; the parent advances. Consumers that
    need several randomness streams (a worker pool, fault injection
    alongside protocol nonces) must split one master generator rather
    than share [t]: split streams are reproducible from the master
    seed and pairwise different. *)

val split_n : t -> int -> t array
(** [split_n t n] is [n] independent child generators, in split order;
    the parent advances [n] times. *)

val next64 : t -> int64
val int : t -> int -> int
(** [int t n] is uniform in [0, n). Requires [n > 0]. *)

val float : t -> float
(** Uniform in [0, 1). *)

val bool : t -> float -> bool
(** [bool t p] is true with probability [p]. *)

val bytes : t -> int -> string
(** [bytes t n] is [n] uniform random bytes. *)

val hex : t -> int -> string
(** [hex t n] is [n] uniform random bytes as [2n] lowercase hex digits:
    the same draws as {!bytes}, printed. The simulated handshakes send
    their randoms, cookies and premaster secrets this way. *)
