(** The query-execution engine: a batched, prefix-sharing,
    multi-worker SUL pool.

    Prognosis's cost model is membership queries against a live
    implementation (paper §4.1), and learning time is dominated by
    executing them — every query is a reset plus one step per symbol.
    The engine sits between the learner's oracles and the SUL adapters
    and attacks that cost three ways:

    - {b planning} — the cache misses of a batch are deduplicated,
      words that are prefixes of longer planned words are answered for
      free by cutting the longer run's per-step outputs to their length
      ({!Plan.t.cover}), and the surviving maximal words are ordered
      for prefix locality ({!Plan});
    - {b pooling} — N factory-constructed SUL instances execute the
      planned runs, each worker tracking the word it has replayed since
      its last reset so a run extending that word resumes mid-replay
      (the reset and the shared prefix's steps are skipped — their
      outputs are the ones the worker observed). Runs execute on the
      calling domain; concurrency lives one level up, in the fleet
      service's session domains ([Service.run ~domains]);
    - {b robustness} — with [replicas >= 2] every run executes on that
      many distinct workers; disagreement escalates to the whole active
      pool and takes the strict-majority answer (the per-query retry),
      striking outvoted workers. A worker with two strikes is
      quarantined — a circuit breaker — and re-admitted after 256
      further pool runs. A pool that cannot agree is the
      paper's §5 nondeterminism diagnosis: a verdict ({!guard}).

    The engine fronts everything with one
    {!Prognosis_learner.Cache} view, so {!membership} is a drop-in
    [Oracle.membership] for {!Prognosis_learner.Learn.run_mq}: cache
    misses are exactly the words that reach the pool. It is also the
    only batch path: a batched word costs one cache walk, and each run
    one insert. *)

type config = {
  workers : int;  (** pool size (>= 1) *)
  batch : bool;  (** advertise [run_batch] to suite-driven oracles *)
  replicas : int;  (** full runs per word for cross-validation (>= 1,
                       <= workers) *)
}

val default : config
(** [{ workers = 1; batch = true; replicas = 1 }] *)

type ('i, 'o) t

val create :
  ?config:config ->
  ?labels:(string * string) list ->
  ?cache:('i, 'o) Prognosis_learner.Cache.t ->
  factory:(int -> ('i, 'o) Prognosis_sul.Sul.t) ->
  unit ->
  ('i, 'o) t
(** [create ~factory ()] builds the pool; [factory i] must return an
    independent SUL instance for worker [i] (give each its own
    {!Prognosis_sul.Rng} stream — see {!Prognosis_sul.Rng.split}).
    [?labels] (default [[]]) is prefixed to every per-worker labelled
    metric ([exec.worker.*]) this engine registers — fleet sessions
    pass [[("session", ..)]] so concurrently live engines keep
    distinct series instead of clobbering each other's gauges.
    [?cache] puts the engine in front of an existing cache view instead
    of a fresh private trie — a checkpoint session's pre-warmed cache
    ({!Prognosis_learner.Checkpoint.cache}) turns a resumed run's
    pre-crash queries into hits that never reach the pool; a fleet
    session's {!Prognosis_learner.Cache.shared} view pools answers
    with every session probing the same endpoint. Either way each query
    crosses this one cache, and {!cache_stats} reports the view's own
    tallies.
    @raise Invalid_argument on a non-positive worker count or
    [replicas] outside [1, workers]. *)

val guard :
  ('i, 'o) t ->
  (unit -> 'a) ->
  ('a, ('i, 'o) Prognosis_sul.Nondet.witness) result
(** [guard e f] runs [f] (a learn or an identification over [e]'s
    {!membership}) and returns [e]'s nondeterminism verdict as [Error].
    The engine has two detectors: a vote with no strict majority (the
    witness is the word with the tally of its answers) and a fresh
    answer that contradicts a cached one (the word cut after the first
    differing output, with the cached and the fresh answer). A verdict
    of another engine, or any other exception, propagates. *)

val freeze : ('i, 'o) t -> string
(** Snapshot of the pool's robustness bookkeeping (per-worker run
    counts, strikes, quarantines; run/cooldown clock) as an opaque
    blob for {!Prognosis_learner.Checkpoint.set_exec_state}. Worker
    resume positions are not captured: fresh SUL instances start from
    reset. *)

val thaw : ('i, 'o) t -> string -> unit
(** Restore a {!freeze} blob into a pool of the same size.
    @raise Invalid_argument on a foreign blob or a changed pool size. *)

val membership : ('i, 'o) t -> ('i, 'o) Prognosis_learner.Oracle.membership
(** The engine as a membership oracle, behind the engine's cache view,
    coded by that view's coders: the cache walk, the plan, worker
    resume and the insert all work on input and output ids, and a
    symbol appears only where a worker steps its SUL. [run] answers
    one word as {!Prognosis_learner.Cache.wrap} would. [run_batch]
    (present when [config.batch]) looks each word up once (every word
    counts as one hit or one miss), plans the misses, inserts each run
    into the cache as it completes, and answers each missing word from
    the outputs of the run that covers it. [ask]/[ask_batch] are their
    symbol views. Answers are observationally identical to
    a direct sequential oracle over one [factory] instance — batching
    and pooling only change cost. The oracle's [stats] count the words
    that reached the pool (= the engine's cache misses). *)

type stats = {
  mutable batches : int;
  mutable planned_words : int;  (** cache-missing words submitted *)
  mutable dedup_hits : int;  (** duplicate words collapsed in batches *)
  mutable prefix_answers : int;
      (** words answered from a longer planned run *)
  mutable runs : int;  (** live SUL executions *)
  mutable resumed : int;  (** runs that skipped the reset via resume *)
  mutable resets : int;
  mutable steps : int;
  mutable baseline_resets : int;
  mutable baseline_steps : int;
      (** cost of the no-reuse sequential oracle on the same query
          stream: one reset plus one step per symbol for every word
          crossing the {!membership} boundary (cache hits included) *)
  mutable disagreements : int;
  mutable vote_runs : int;  (** replica + escalation runs beyond the
                                first run of each voted word *)
  mutable quarantines : int;
}

val stats : ('i, 'o) t -> stats
val oracle_stats : ('i, 'o) t -> Prognosis_learner.Oracle.stats
val config : ('i, 'o) t -> config

val cache_stats : ('i, 'o) t -> int * int
(** (hits, misses) of the engine's cache — pass to
    {!Prognosis_learner.Learn.run_mq}'s [cache_stats]. *)

val worker_runs : ('i, 'o) t -> int array
(** Per-worker runs executed (utilization). *)

val saved_resets : ('i, 'o) t -> int
val saved_steps : ('i, 'o) t -> int
(** Baseline minus actual, where the baseline is the no-reuse
    sequential oracle (every query executed directly: one reset plus
    one step per symbol). Negative when replication spends more than
    caching and planning save. *)

val quarantined : ('i, 'o) t -> int list
(** Ids of currently quarantined workers. *)

val stats_json : ('i, 'o) t -> Prognosis_obs.Jsonx.t
(** Schema-versioned ["prognosis.exec/1"] object for
    {!Report.to_json}'s [exec] section and the bench snapshot. *)

