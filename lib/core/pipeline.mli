(** The one engine-level learn path. {!Protocol.learn} (every typed
    learn: the studies' descriptors and [Prognosis_service.Subject])
    and the fleet scheduler's string-level learn sessions run through
    {!learn}: membership queries always run through a
    {!Prognosis_exec.Engine} pool in front of one query cache, and
    {!Prognosis_learner.Learn.run_mq} drives the learner. *)

type ('i, 'o) factory =
  seed:int64 -> workers:int -> int -> ('i, 'o) Prognosis_sul.Sul.t
(** [factory ~seed ~workers i] is worker [i]'s independent SUL instance
    in a pool of [workers] learning under [seed]. *)

val learn :
  ?exec:Prognosis_exec.Engine.config ->
  ?cache:('i, 'o) Prognosis_learner.Cache.t ->
  ?labels:(string * string) list ->
  ?checkpoint:('i, 'o) Prognosis_learner.Checkpoint.session ->
  subject:string ->
  seed:int64 ->
  algorithm:Prognosis_learner.Learn.algorithm ->
  inputs:'i array ->
  factory:('i, 'o) factory ->
  eq:('i, 'o) Prognosis_learner.Oracle.equivalence ->
  unit ->
  ( ('i, 'o) Prognosis_automata.Mealy.t * Report.t,
    ('i, 'o) Prognosis_sul.Nondet.witness )
  result
(** Learns [subject] over [inputs] with the equivalence oracle [eq], or
    returns the engine's nondeterminism verdict
    ({!Prognosis_exec.Engine.guard}) when the implementation answers a
    query inconsistently.

    Without [?exec] the pool is [{Engine.default with batch = false}]:
    one worker, one query at a time, the same query stream as a plain
    cached SUL oracle. With [?exec] the report carries the engine's
    [exec] stats section.

    [?cache] puts the engine in front of an existing cache view (a
    fleet session's {!Prognosis_learner.Cache.shared} view); [?labels]
    goes to {!Prognosis_exec.Engine.create}. A [?checkpoint] session
    supplies its own (possibly pre-warmed) cache in place of [?cache],
    snapshots the run together with the engine's robustness
    bookkeeping, and may raise
    {!Prognosis_learner.Checkpoint.Budget_exhausted}.

    Checks (through {!Prognosis_learner.Learn.run_mq}'s [cache_stats])
    that the queries reaching the pool equal the cache view's misses. *)
