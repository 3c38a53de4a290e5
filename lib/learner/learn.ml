module Metrics = Prognosis_obs.Metrics
module Trace = Prognosis_obs.Trace
module Jsonx = Prognosis_obs.Jsonx

let src = Logs.Src.create "prognosis.learn" ~doc:"Learning driver"

module Log = (val Logs.src_log src : Logs.LOG)

type algorithm = L_star | Ttt_tree

type ('i, 'o) result = {
  model : ('i, 'o) Prognosis_automata.Mealy.t;
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

let log_result name (model : ('i, 'o) Prognosis_automata.Mealy.t) rounds
    (stats : Oracle.stats) =
  Log.info (fun m ->
      m "%s: %d states, %d transitions, %d membership queries, %d rounds" name
        (Prognosis_automata.Mealy.size model)
        (Prognosis_automata.Mealy.transitions model)
        stats.Oracle.membership_queries rounds)

let learn_span ~algorithm ~subject ~cache f =
  Trace.with_span
    ~attrs:
      [
        ("algorithm", Jsonx.String (algorithm_label algorithm));
        ("subject", Jsonx.String subject);
        ("cache", Jsonx.Bool cache);
      ]
    "learn" f

let finish_span (r : ('i, 'o) result) =
  Trace.add_attr "states"
    (Jsonx.Int (Prognosis_automata.Mealy.size r.model));
  Trace.add_attr "rounds" (Jsonx.Int r.rounds);
  Trace.add_attr "membership_queries"
    (Jsonx.Int r.stats.Oracle.membership_queries);
  Trace.add_attr "cache_hits" (Jsonx.Int r.cache_hits);
  r

(* The learning loop behind {!run_mq} and {!run}; [subject] only labels
   the span and the log line. With a checkpoint session the membership
   path gains the session's snapshot-or-abort check after every answer,
   and round boundaries flush pending material; [finish] leaves a
   snapshot of the completed run behind (a post-success [resume] is
   then a pure cache replay). *)
let drive ~subject ?(algorithm = Ttt_tree) ?max_rounds ?cache_stats ?checkpoint
    ~inputs ~mq ~eq () =
  learn_span ~algorithm ~subject ~cache:(Option.is_some cache_stats) (fun () ->
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
      log_result subject model rounds mq.Oracle.stats;
      let hits, misses =
        match cache_stats with Some f -> f () | None -> (0, 0)
      in
      (* The cache is the single gate in front of the SUL: the oracle
         underneath only ever answers cache misses, so the two counts
         must agree — a violation means some layer double-counted or
         bypassed the cache (see docs/OBSERVABILITY.md). *)
      if Option.is_some cache_stats then
        assert (mq.Oracle.stats.Oracle.membership_queries = misses);
      if hits + misses > 0 then
        Metrics.set g_hit_rate
          (float_of_int hits /. float_of_int (hits + misses));
      finish_span
        {
          model;
          rounds;
          stats = mq.Oracle.stats;
          cache_hits = hits;
          cache_misses = misses;
        })

let run_mq ?algorithm ?max_rounds ?cache_stats ?checkpoint ~inputs ~mq ~eq () =
  drive ~subject:"mq" ?algorithm ?max_rounds ?cache_stats ?checkpoint ~inputs
    ~mq ~eq ()

let run ?algorithm ?max_rounds ?(cache = true) ~inputs ~sul ~eq () =
  let subject = sul.Prognosis_sul.Sul.description in
  let raw = Oracle.of_sul sul in
  if cache then
    let c = Cache.create () in
    drive ~subject ?algorithm ?max_rounds
      ~cache_stats:(fun () -> (Cache.hits c, Cache.misses c))
      ~inputs ~mq:(Cache.wrap c raw) ~eq ()
  else drive ~subject ?algorithm ?max_rounds ~inputs ~mq:raw ~eq ()
