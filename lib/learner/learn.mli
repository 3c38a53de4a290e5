(** High-level learning driver: wires a SUL, a caching membership
    oracle, an equivalence oracle and a learning algorithm into one
    call, returning the model together with the statistics the paper's
    evaluation reports (states, transitions, membership queries,
    rounds). *)

type algorithm = L_star | Ttt_tree

type ('i, 'o) result = {
  model : ('i, 'o) Prognosis_automata.Mealy.t;
  rounds : int;  (** equivalence rounds (hypotheses built) *)
  stats : Oracle.stats;
  cache_hits : int;
  cache_misses : int;
}

val run :
  ?algorithm:algorithm ->
  ?max_rounds:int ->
  ?cache:bool ->
  inputs:'i array ->
  sul:('i, 'o) Prognosis_sul.Sul.t ->
  eq:('i, 'o) Oracle.equivalence ->
  unit ->
  ('i, 'o) result
(** Learns a model of [sul] directly, one query at a time — the
    learner-level entry point for tests and ablations (including
    [~cache:false]); protocol studies learn through
    [Prognosis.Pipeline.learn] instead. Defaults: TTT, caching on, 200
    rounds. Statistics count the queries that actually reached the SUL
    (cache hits are reported separately; with caching on, [run]
    checks [stats.membership_queries = cache_misses]). The whole run
    executes inside a ["learn"] span when {!Prognosis_obs.Trace} has a
    sink. *)

val run_mq :
  ?algorithm:algorithm ->
  ?max_rounds:int ->
  ?cache_stats:(unit -> int * int) ->
  ?checkpoint:('i, 'o) Checkpoint.session ->
  inputs:'i array ->
  mq:('i, 'o) Oracle.membership ->
  eq:('i, 'o) Oracle.equivalence ->
  unit ->
  ('i, 'o) result
(** Variant taking a prebuilt membership oracle (no extra caching).
    When [mq] carries its own cache (the query-execution engine does),
    pass [cache_stats] returning its (hits, misses) so the result and
    the [learn.cache_hit_rate] gauge reflect it; [run_mq] then checks
    [mq.stats.membership_queries = misses] (only cache misses may reach
    the oracle underneath). With [?checkpoint],
    [mq] must answer from the session's cache (build the engine with
    [Engine.create ~cache:(Checkpoint.cache session)]) so snapshots
    see every answered query. *)
