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

let check_word (mq : ('i, 'o) Oracle.membership) h word =
  if word = [] then None
  else begin
    mq.Oracle.stats.test_words <- mq.Oracle.stats.test_words + 1;
    Metrics.inc m_test_words;
    let sul_out = mq.ask word in
    let hyp_out = Mealy.run h word in
    if sul_out <> hyp_out then begin
      Metrics.inc m_counterexamples;
      if Trace.enabled () then
        Trace.event
          ~attrs:[ ("len", Prognosis_obs.Jsonx.Int (List.length word)) ]
          "eq.counterexample";
      Some word
    end
    else None
  end

(* When the oracle can plan whole batches (the query-execution
   engine), suites are executed [batch_chunk] words at a time: the
   batch executor shares resets across prefix-related words, and the
   first in-suite-order counterexample is still the one the sequential
   fold would have returned. Words after the counterexample within its
   chunk do get executed (and cached) — honest accounting counts them
   as test words. *)
let batch_chunk = 128

let check_batched mq batch h words =
  let words = List.filter (fun w -> w <> []) words in
  match words with
  | [] -> None
  | _ ->
      List.iter
        (fun _ ->
          mq.Oracle.stats.test_words <- mq.Oracle.stats.test_words + 1;
          Metrics.inc m_test_words)
        words;
      Metrics.inc m_shards;
      let answers = batch words in
      let rec find words answers =
        match (words, answers) with
        | word :: words', out :: answers' ->
            if out <> Mealy.run h word then begin
              Metrics.inc m_counterexamples;
              if Trace.enabled () then
                Trace.event
                  ~attrs:[ ("len", Prognosis_obs.Jsonx.Int (List.length word)) ]
                  "eq.counterexample";
              Some word
            end
            else find words' answers'
        | _ -> None
      in
      find words answers

let rec split_chunk n l =
  if n = 0 then ([], l)
  else
    match l with
    | [] -> ([], [])
    | x :: rest ->
        let a, b = split_chunk (n - 1) rest in
        (x :: a, b)

let check_suite mq h suite =
  match mq.Oracle.ask_batch with
  | Some batch ->
      let rec loop = function
        | [] -> None
        | words -> (
            let chunk, rest = split_chunk batch_chunk words in
            match check_batched mq batch h chunk with
            | Some cex -> Some cex
            | None -> loop rest)
      in
      loop suite
  | None ->
      List.fold_left
        (fun acc word ->
          match acc with Some _ -> acc | None -> check_word mq h word)
        None suite

let random_word rng inputs len =
  List.init len (fun _ -> inputs.(Rng.int rng (Array.length inputs)))

let random_words ~rng ~max_tests ~min_len ~max_len mq h =
  let inputs = Mealy.inputs h in
  match mq.Oracle.ask_batch with
  | Some batch ->
      (* Words are pre-drawn a chunk at a time so the engine can plan
         them together. The rng stream is consumed in the same
         len-then-symbols order as the sequential path, though chunks
         past a counterexample-bearing word never get drawn. *)
      let draw () =
        let len = min_len + Rng.int rng (max_len - min_len + 1) in
        random_word rng inputs len
      in
      let rec draw_chunk n acc =
        if n = 0 then List.rev acc else draw_chunk (n - 1) (draw () :: acc)
      in
      let rec loop k =
        if k = 0 then None
        else
          let n = min batch_chunk k in
          match check_batched mq batch h (draw_chunk n []) with
          | Some cex -> Some cex
          | None -> loop (k - n)
      in
      loop max_tests
  | None ->
      let rec loop k =
        if k = 0 then None
        else
          let len = min_len + Rng.int rng (max_len - min_len + 1) in
          match check_word mq h (random_word rng inputs len) with
          | Some cex -> Some cex
          | None -> loop (k - 1)
      in
      loop max_tests

let random_walk ~rng ~max_tests ~stop_prob mq h =
  let inputs = Mealy.inputs h in
  let rec draw acc =
    let acc = inputs.(Rng.int rng (Array.length inputs)) :: acc in
    if Rng.bool rng stop_prob then List.rev acc else draw acc
  in
  let rec loop k =
    if k = 0 then None
    else
      match check_word mq h (draw []) with
      | Some cex -> Some cex
      | None -> loop (k - 1)
  in
  loop max_tests

let w_method ?(extra_states = 0) () mq h =
  check_suite mq h (Testing.w_method ~extra_states h)

let wp_method ?(extra_states = 0) () mq h =
  check_suite mq h (Testing.wp_method ~extra_states h)

let fixed_words words mq h = check_suite mq h words

let exhaustive ~max_len mq h =
  let words = Testing.middle_words (Mealy.inputs h) max_len in
  check_suite mq h words

let against target _mq h = Mealy.equivalent target h

let combine oracles mq h =
  List.fold_left
    (fun acc oracle -> match acc with Some _ -> acc | None -> oracle mq h)
    None oracles

let shrink (mq : ('i, 'o) Oracle.membership) h cex =
  let distinguishes word =
    word <> [] && mq.ask word <> Mealy.run h word
  in
  let rec remove_one prefix = function
    | [] -> None
    | x :: rest ->
        let candidate = List.rev_append prefix rest in
        if distinguishes candidate then Some candidate
        else remove_one (x :: prefix) rest
  in
  let rec loop word =
    match remove_one [] word with Some shorter -> loop shorter | None -> word
  in
  if distinguishes cex then loop cex else cex
