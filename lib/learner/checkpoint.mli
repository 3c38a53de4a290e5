(** Crash-tolerant learning runs: periodic snapshots and resume.

    A learning run against a live implementation can take tens of
    thousands of membership queries (the paper's QUIC studies); losing
    everything to a crash mid-run is unacceptable at that scale. The
    observation here is that for the deterministic learners used in
    Prognosis (L*, TTT), the membership-query cache {b is} the
    recoverable learner state: replaying the algorithm against a
    pre-warmed cache reconstructs the observation table or
    discrimination tree without touching the SUL, so a snapshot only
    needs the cache contents (plus the query-execution engine's
    worker/quarantine bookkeeping when a pool is in use).

    Snapshots are written atomically (tmp + rename), every [every] SUL
    queries and at every learner round boundary, under a
    kind/OCaml-version guarded header. Instrumentation reports through
    [checkpoint.*] metrics and spans ({!Prognosis_obs}). *)

(** Structured load failures, mirroring [Persist.load_error]. *)
type error =
  | Missing_file of { path : string; detail : string }
  | Foreign_magic of { path : string; found : string }
  | Kind_mismatch of { path : string; found : string; expected : string }
  | Version_mismatch of { path : string; found : string; running : string }
  | Corrupt of { path : string; detail : string }

val error_to_string : error -> string

type ('i, 'o) snapshot = {
  queries : int;
      (** cumulative SUL queries answered when the snapshot was taken,
          across every resumed segment of the run *)
  words : ('i list * 'o list) list;  (** {!Cache.dump} of the query cache *)
  exec : string option;
      (** opaque engine worker state ([Engine.freeze]) when the run
          used the query-execution pool *)
}

val save : path:string -> kind:string -> ('i, 'o) snapshot -> unit
(** Atomic write through {!Prognosis_obs.Atomic_file.write}: the
    snapshot lands at [path] completely or not at all. The header
    records [kind] and the OCaml version (the payload is OCaml's own
    value serialization, a local crash-recovery format — portability
    is the model format's job, not the checkpoint's). The
    [checkpoint.bytes] gauge is the written length. *)

val load : path:string -> kind:string -> (('i, 'o) snapshot, error) result

(** {2 Run sessions}

    A [session] owns the query cache of one (possibly resumed)
    learning run and decides when to snapshot it. Studies create one
    per run when checkpointing is requested, learn through
    {!instrument}'d oracles, and {!finish} on success. *)

type spec = {
  dir : string;  (** checkpoint directory *)
  every : int;  (** SUL queries between periodic snapshots *)
  budget : int option;
      (** abort the run (after snapshotting) once this many cumulative
          SUL queries have been answered — the controlled "crash" used
          to test and demonstrate resume *)
  resume : bool;  (** pre-warm the cache from an existing snapshot *)
}

val spec : ?every:int -> ?budget:int -> ?resume:bool -> dir:string -> unit -> spec
(** Defaults: [every = 500], no budget, fresh run. *)

exception Budget_exhausted of { queries : int; path : string }
(** Raised by an {!instrument}'d oracle when the session's query
    budget is reached. The snapshot at [path] is written before the
    raise, so a later [resume] run loses nothing. *)

exception Unusable of error
(** Raised by {!start} when a snapshot cannot be resumed from: a
    foreign, mismatched or unreadable file, or words that do not fit
    together (a word/outputs length mismatch, or two words answering a
    shared prefix differently), each a [Corrupt]. The CLI prints it as
    [error: …] and exits 1. *)

type ('i, 'o) session

val start : kind:string -> spec -> ('i, 'o) session
(** Creates [spec.dir] if needed. With [spec.resume], loads
    [dir/kind.ckpt] into a fresh cache (a missing file degrades to a
    fresh start).
    @raise Unusable on any other load or restore failure. *)

val file : ('i, 'o) session -> string
(** [dir/kind.ckpt], where snapshots are written. *)

val cache : ('i, 'o) session -> ('i, 'o) Cache.t
(** The session's query cache — pre-warmed when resuming. Pass it to
    [Engine.create ~cache]. *)

val resumed_queries : ('i, 'o) session -> int
(** Cumulative SUL queries recorded by the loaded snapshot (0 for a
    fresh run). *)

val exec_blob : ('i, 'o) session -> string option
(** Engine worker state carried by the loaded snapshot, for
    [Engine.thaw]. *)

val set_exec_state : ('i, 'o) session -> (unit -> string) -> unit
(** Register the engine's [freeze] so subsequent snapshots include
    worker/quarantine state. *)

val instrument :
  ('i, 'o) session -> ('i, 'o) Oracle.membership -> ('i, 'o) Oracle.membership
(** Checkpointing view of a membership oracle's coded face (and so of
    its symbol views): answers pass through untouched; after each
    (batch of) answers the session snapshots if
    [every] new SUL queries accumulated since the last write, and
    raises {!Budget_exhausted} (after a final snapshot) once the
    cumulative query count reaches [spec.budget]. Wrap the {e cached}
    oracle — the session reads the cache's miss counter, so only
    queries that actually reached the SUL advance the clock. *)

val on_round : ('i, 'o) session -> round:int -> states:int -> unit
(** Round-boundary hook for the learners' [~on_round] ({!Learn.run_mq}
    passes it): snapshots whenever
    new material accumulated since the last write — hypothesis
    construction points are the natural stable states of a run. *)

val queries : ('i, 'o) session -> int
(** Cumulative SUL queries so far (resumed + this segment). *)

val saves : ('i, 'o) session -> int
(** Snapshots written by this session. *)

val finish : ('i, 'o) session -> unit
(** Final snapshot (skipped when nothing changed since the last one). *)
