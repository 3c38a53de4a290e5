module Mealy = Prognosis_automata.Mealy
module Learn = Prognosis_learner.Learn
module Oracle = Prognosis_learner.Oracle
module Jsonx = Prognosis_obs.Jsonx
module Metrics = Prognosis_obs.Metrics

type t = {
  subject : string;
  algorithm : string;
  states : int;
  transitions : int;
  membership_queries : int;
  membership_symbols : int;
  cache_hits : int;
  cache_misses : int;
  equivalence_rounds : int;
  test_words : int;
  alphabet : int;
  exec : Jsonx.t option;
  identification : Jsonx.t option;
  service : Jsonx.t option;
}

let of_learn_result ~subject ~algorithm ?exec (r : ('i, 'o) Learn.result) =
  {
    subject;
    algorithm;
    states = Mealy.size r.Learn.model;
    transitions = Mealy.transitions r.Learn.model;
    membership_queries = r.Learn.stats.Oracle.membership_queries;
    membership_symbols = r.Learn.stats.Oracle.membership_symbols;
    (* the cache is the authoritative source for both numbers; the
       learning driver asserts membership_queries = cache_misses when
       caching is on *)
    cache_hits = r.Learn.cache_hits;
    cache_misses = r.Learn.cache_misses;
    equivalence_rounds = r.Learn.rounds;
    test_words = r.Learn.stats.Oracle.test_words;
    alphabet = Mealy.alphabet_size r.Learn.model;
    exec;
    identification = None;
    service = None;
  }

let cache_hit_rate t =
  let total = t.cache_hits + t.cache_misses in
  if total = 0 then 0.0 else float_of_int t.cache_hits /. float_of_int total

let trace_count t ~max_len = Mealy.count_words ~alphabet:t.alphabet ~max_len

let pp fmt t =
  Format.fprintf fmt
    "%s (%s): %d states, %d transitions, %d membership queries (%d symbols, %d \
     cache hits / %d misses), %d equivalence rounds, %d test words"
    t.subject t.algorithm t.states t.transitions t.membership_queries
    t.membership_symbols t.cache_hits t.cache_misses t.equivalence_rounds
    t.test_words

let header =
  [
    "subject";
    "algorithm";
    "states";
    "transitions";
    "mem queries";
    "symbols";
    "cache hits";
    "cache misses";
    "eq rounds";
    "test words";
  ]

let to_row t =
  [
    t.subject;
    t.algorithm;
    string_of_int t.states;
    string_of_int t.transitions;
    string_of_int t.membership_queries;
    string_of_int t.membership_symbols;
    string_of_int t.cache_hits;
    string_of_int t.cache_misses;
    string_of_int t.equivalence_rounds;
    string_of_int t.test_words;
  ]

let to_json ?metrics t =
  let fields =
    [
      ("schema", Jsonx.String "prognosis.report/1");
      ("subject", Jsonx.String t.subject);
      ("algorithm", Jsonx.String t.algorithm);
      ("states", Jsonx.Int t.states);
      ("transitions", Jsonx.Int t.transitions);
      ("alphabet", Jsonx.Int t.alphabet);
      ("membership_queries", Jsonx.Int t.membership_queries);
      ("membership_symbols", Jsonx.Int t.membership_symbols);
      ("cache_hits", Jsonx.Int t.cache_hits);
      ("cache_misses", Jsonx.Int t.cache_misses);
      ("cache_hit_rate", Jsonx.Float (cache_hit_rate t));
      ("equivalence_rounds", Jsonx.Int t.equivalence_rounds);
      ("test_words", Jsonx.Int t.test_words);
    ]
  in
  let fields =
    match t.exec with
    | None -> fields
    | Some e -> fields @ [ ("exec", e) ]
  in
  let fields =
    match t.identification with
    | None -> fields
    | Some i -> fields @ [ ("identification", i) ]
  in
  let fields =
    match t.service with
    | None -> fields
    | Some s -> fields @ [ ("service", s) ]
  in
  let fields =
    match metrics with
    | None -> fields
    | Some m -> fields @ [ ("metrics", Metrics.to_json m) ]
  in
  Jsonx.Obj fields

let to_json_string ?metrics t = Jsonx.to_string (to_json ?metrics t)
