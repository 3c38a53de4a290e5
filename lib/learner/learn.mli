(** The learning driver: runs a learning algorithm against a
    membership oracle and an equivalence oracle, returning the model
    together with the statistics the paper's evaluation reports
    (states, transitions, membership queries, rounds). Protocols learn
    through [Prognosis.Pipeline.learn], which builds the membership
    oracle from a [Prognosis_exec.Engine] pool in front of one query
    cache and calls {!run_mq}. *)

type algorithm = L_star | Ttt_tree

type ('i, 'o) result = {
  model : ('i, 'o) Prognosis_automata.Mealy.t;
  rounds : int;  (** equivalence rounds (hypotheses built) *)
  stats : Oracle.stats;
  cache_hits : int;
  cache_misses : int;
}

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
(** Learns with [mq] answering membership queries (no extra caching).
    Defaults: TTT, 200 rounds. Statistics count the queries that
    reached [mq]. When [mq] carries its own cache (the query-execution
    engine does), pass [cache_stats] returning its (hits, misses) so
    the result and the [learn.cache_hit_rate] gauge reflect it;
    [run_mq] then checks [mq.stats.membership_queries = misses] (only
    cache misses may reach the oracle underneath). With [?checkpoint],
    [mq] must answer from the session's cache (build the engine with
    [Engine.create ~cache:(Checkpoint.cache session)]) so snapshots
    see every answered query. The whole run executes inside a
    ["learn"] span when {!Prognosis_obs.Trace} has a sink. *)
