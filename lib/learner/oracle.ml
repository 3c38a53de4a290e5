module Metrics = Prognosis_obs.Metrics
module Trace = Prognosis_obs.Trace
module Clock = Prognosis_obs.Clock

type stats = {
  mutable membership_queries : int;
  mutable membership_symbols : int;
  mutable equivalence_queries : int;
  mutable test_words : int;
}

let fresh_stats () =
  {
    membership_queries = 0;
    membership_symbols = 0;
    equivalence_queries = 0;
    test_words = 0;
  }

type ('i, 'o) membership = {
  ask : 'i list -> 'o list;
  ask_batch : ('i list list -> 'o list list) option;
  stats : stats;
}

let m_queries = Metrics.counter Metrics.default "oracle.membership_queries"
let m_symbols = Metrics.counter Metrics.default "oracle.membership_symbols"
let h_latency = Metrics.histogram Metrics.default "oracle.mq_latency_ns"

(* Every query through [of_fun] is one that reaches the underlying
   function (the SUL, or the nondeterminism check around it): cache
   layers sit *above* this oracle and short-circuit before [ask] runs,
   which is what keeps [membership_queries] an exact count of queries
   the SUL actually served. *)
let count_query stats len =
  stats.membership_queries <- stats.membership_queries + 1;
  stats.membership_symbols <- stats.membership_symbols + len;
  Metrics.inc m_queries;
  Metrics.inc ~by:len m_symbols

let run_query stats len f =
  count_query stats len;
  let t0 = Clock.now_ns () in
  let answer =
    if Trace.enabled () then
      Trace.with_span
        ~attrs:[ ("len", Prognosis_obs.Jsonx.Int len) ]
        "oracle.mq" f
    else f ()
  in
  Metrics.observe_ns h_latency (Int64.sub (Clock.now_ns ()) t0);
  answer

let of_fun ?stats f =
  let stats = match stats with Some s -> s | None -> fresh_stats () in
  let ask word = run_query stats (List.length word) (fun () -> f word) in
  { ask; ask_batch = None; stats }

let of_sul ?stats sul = of_fun ?stats (Prognosis_sul.Sul.query sul)

type ('i, 'o) equivalence =
  ('i, 'o) membership -> ('i, 'o) Prognosis_automata.Mealy.t -> 'i list option
