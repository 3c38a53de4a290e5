module Metrics = Prognosis_obs.Metrics
module Trace = Prognosis_obs.Trace
module Jsonx = Prognosis_obs.Jsonx
module Mealy = Prognosis_automata.Mealy

let src = Logs.Src.create "prognosis.learn" ~doc:"Learning driver"

module Log = (val Logs.src_log src : Logs.LOG)

type algorithm = L_star | Ttt_tree

type ('i, 'o) result = {
  model : ('i, 'o) Mealy.t;
  rounds : int;
  stats : Oracle.stats;
  cache_hits : int;
  cache_misses : int;
}

let algorithm_label = function L_star -> "lstar" | Ttt_tree -> "ttt"

let g_hit_rate = Metrics.gauge Metrics.default "learn.cache_hit_rate"

let dispatch algorithm ?max_rounds ?on_round ~inputs ~mq ~eq () =
  match algorithm with
  | L_star -> Lstar.learn ?max_rounds ?on_round ~inputs ~mq ~eq ()
  | Ttt_tree -> Ttt.learn ?max_rounds ?on_round ~inputs ~mq ~eq ()

(* The learning loop. With a checkpoint session the membership path
   gains the session's snapshot-or-abort check after every answer, and
   round boundaries flush pending material; [finish] leaves a snapshot
   of the completed run behind (a post-success [resume] is then a pure
   cache replay). The span and the log line name the subject "mq": the
   driver sees only the oracle. *)
let run_mq ?(algorithm = Ttt_tree) ?max_rounds ?cache_stats ?checkpoint ~inputs
    ~mq ~eq () =
  Trace.with_span
    ~attrs:
      [
        ("algorithm", Jsonx.String (algorithm_label algorithm));
        ("subject", Jsonx.String "mq");
        ("cache", Jsonx.Bool (Option.is_some cache_stats));
      ]
    "learn"
    (fun () ->
      let model, rounds =
        dispatch algorithm ?max_rounds
          ?on_round:(Option.map Checkpoint.on_round checkpoint)
          ~inputs
          ~mq:
            (Option.fold ~none:mq
               ~some:(fun ck -> Checkpoint.instrument ck mq)
               checkpoint)
          ~eq ()
      in
      Option.iter Checkpoint.finish checkpoint;
      let stats = mq.Oracle.stats in
      Log.info (fun m ->
          m "mq: %d states, %d transitions, %d membership queries, %d rounds"
            (Mealy.size model) (Mealy.transitions model)
            stats.Oracle.membership_queries rounds);
      let hits, misses =
        match cache_stats with Some f -> f () | None -> (0, 0)
      in
      (* The cache is the single gate in front of the SUL: the oracle
         underneath only ever answers cache misses, so the two counts
         must agree — a violation means some layer double-counted or
         bypassed the cache (see docs/OBSERVABILITY.md). *)
      if Option.is_some cache_stats then
        assert (stats.Oracle.membership_queries = misses);
      if hits + misses > 0 then
        Metrics.set g_hit_rate
          (float_of_int hits /. float_of_int (hits + misses));
      Trace.add_attr "states" (Jsonx.Int (Mealy.size model));
      Trace.add_attr "rounds" (Jsonx.Int rounds);
      Trace.add_attr "membership_queries"
        (Jsonx.Int stats.Oracle.membership_queries);
      Trace.add_attr "cache_hits" (Jsonx.Int hits);
      { model; rounds; stats; cache_hits = hits; cache_misses = misses })
