module Mealy = Prognosis_automata.Mealy
module Testing = Prognosis_automata.Testing
module Rng = Prognosis_sul.Rng
module Metrics = Prognosis_obs.Metrics
module Trace = Prognosis_obs.Trace

let m_test_words = Metrics.counter Metrics.default "eq.test_words"
let m_counterexamples = Metrics.counter Metrics.default "eq.counterexamples"

let m_shards = Metrics.counter Metrics.default "eq.shards"
(* one per word-chunk handed to a batch-capable oracle: each shard is
   one batch the engine plans and runs on its worker pool *)

(* The one suite runner. [words] is the suite (alphabet positions),
   drawn in order, each word once. With a batching oracle the words run
   [batch_chunk] at a time: the engine shares resets across
   prefix-related words, and the first in-suite-order counterexample is
   still the one a word-at-a-time run returns. Words after the
   counterexample within its chunk do get executed (and cached) —
   honest accounting counts them as test words. Without batching a
   chunk is one word. Empty words are dropped, uncounted. *)
let batch_chunk = 128

let run_suite mq h words =
  let b = Oracle.bind mq (Mealy.inputs h) in
  let hyp = Oracle.replay b h in
  let query_batch = Oracle.query_batch b in
  let chunk = if Option.is_some query_batch then batch_chunk else 1 in
  let buf = Array.make chunk [||] in
  (* Draws up to [n] words into [buf] from [k], dropping empty ones:
     the count kept, and the rest of the suite ([None] at its end). *)
  let rec take n words k =
    if n = 0 then (k, Some words)
    else
      match words () with
      | Seq.Nil -> (k, None)
      | Seq.Cons (w, rest) ->
          if Array.length w = 0 then take (n - 1) rest k
          else begin
            buf.(k) <- w;
            take (n - 1) rest (k + 1)
          end
  in
  let rec loop words =
    match take chunk words 0 with
    | 0, None -> None
    | k, rest -> (
        let words = Array.sub buf 0 k in
        mq.Oracle.stats.test_words <- mq.Oracle.stats.test_words + k;
        Metrics.inc ~by:k m_test_words;
        let answers =
          match query_batch with
          | Some run when k > 0 ->
              Metrics.inc m_shards;
              run words
          | _ -> Array.map (Oracle.query b) words
        in
        let rec find i =
          if i = k then None
          else if Oracle.equal_ids (hyp words.(i)) answers.(i) then find (i + 1)
          else Some words.(i)
        in
        match (find 0, rest) with
        | None, Some rest -> loop rest
        | None, None -> None
        | Some w, _ ->
            Metrics.inc m_counterexamples;
            if Trace.enabled () then
              Trace.event
                ~attrs:[ ("len", Prognosis_obs.Jsonx.Int (Array.length w)) ]
                "eq.counterexample";
            Some (Mealy.decode (Mealy.inputs h) w))
  in
  loop words

let random_words ~rng ~max_tests ~min_len ~max_len mq h =
  let n = Mealy.alphabet_size h in
  (* Length first, then the symbols, one word at a time: a chunk draws
     its words in the same order a word-at-a-time run does. *)
  run_suite mq h
    (Seq.init max_tests (fun _ ->
         let len = min_len + Rng.int rng (max_len - min_len + 1) in
         Array.init len (fun _ -> Rng.int rng n)))

let random_walk ~rng ~max_tests ~stop_prob mq h =
  let n = Mealy.alphabet_size h in
  let rec walk acc =
    let acc = Rng.int rng n :: acc in
    if Rng.bool rng stop_prob then Array.of_list (List.rev acc) else walk acc
  in
  run_suite mq h (Seq.init max_tests (fun _ -> walk []))

let w_method ?(extra_states = 0) () mq h =
  run_suite mq h (List.to_seq (Testing.w_method_ids ~extra_states h))

let wp_method ?(extra_states = 0) () mq h =
  run_suite mq h (List.to_seq (Testing.wp_method_ids ~extra_states h))

let fixed_words words mq h =
  let b = Oracle.bind mq (Mealy.inputs h) in
  run_suite mq h (Seq.map (Oracle.encode b) (List.to_seq words))

let exhaustive ~max_len mq h =
  run_suite mq h
    (List.to_seq (Testing.middle_ids (Mealy.alphabet_size h) max_len))

let against target _mq h = Mealy.equivalent target h

let combine oracles mq h =
  List.fold_left
    (fun acc oracle -> match acc with Some _ -> acc | None -> oracle mq h)
    None oracles

let shrink mq h cex =
  let b = Oracle.bind mq (Mealy.inputs h) in
  let hyp = Oracle.replay b h in
  let distinguishes w =
    Array.length w > 0 && not (Oracle.equal_ids (Oracle.query b w) (hyp w))
  in
  (* The first word with one symbol removed that still distinguishes. *)
  let remove_one w =
    let n = Array.length w in
    let rec at i =
      if i = n then None
      else
        let c = Array.append (Array.sub w 0 i) (Array.sub w (i + 1) (n - i - 1)) in
        if distinguishes c then Some c else at (i + 1)
    in
    at 0
  in
  let rec loop w = match remove_one w with Some c -> loop c | None -> w in
  let w = Oracle.encode b cex in
  if distinguishes w then Mealy.decode (Mealy.inputs h) (loop w) else cex
