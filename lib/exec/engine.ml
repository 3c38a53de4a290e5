module Sul = Prognosis_sul.Sul
module Nondet = Prognosis_sul.Nondet
module Cache = Prognosis_learner.Cache
module Oracle = Prognosis_learner.Oracle
module Coder = Oracle.Coder
module Metrics = Prognosis_obs.Metrics
module Trace = Prognosis_obs.Trace
module Jsonx = Prognosis_obs.Jsonx

type config = {
  workers : int;
  batch : bool;
  replicas : int;
  max_strikes : int;
  cooldown : int;
}

let default =
  {
    workers = 1;
    batch = true;
    replicas = 1;
    max_strikes = 2;
    cooldown = 256;
  }

type ('i, 'o) worker = {
  id : int;
  sul : ('i, 'o) Sul.t;
  mutable position : int array;
      (* coded word replayed since the last reset; [||] = state
         unknown, the next run must reset *)
  mutable position_outs : int array; (* the output ids observed on it *)
  mutable runs_done : int;
  mutable resets_done : int;
  mutable steps_done : int;
  mutable strikes : int;
  mutable quarantined_until : int; (* engine run-clock value *)
}

type stats = {
  mutable batches : int;
  mutable planned_words : int;
  mutable dedup_hits : int;
  mutable prefix_answers : int;
  mutable runs : int;
  mutable resumed : int;
  mutable resets : int;
  mutable steps : int;
  mutable baseline_resets : int;
  mutable baseline_steps : int;
  mutable disagreements : int;
  mutable vote_runs : int;
  mutable quarantines : int;
}

let fresh_stats () =
  {
    batches = 0;
    planned_words = 0;
    dedup_hits = 0;
    prefix_answers = 0;
    runs = 0;
    resumed = 0;
    resets = 0;
    steps = 0;
    baseline_resets = 0;
    baseline_steps = 0;
    disagreements = 0;
    vote_runs = 0;
    quarantines = 0;
  }

type ('i, 'o) t = {
  config : config;
  workers : ('i, 'o) worker array;
  cache : ('i, 'o) Cache.t;
  stats : stats;
  oracle_stats : Oracle.stats;
  mutable clock : int; (* total runs executed, for quarantine cooldowns *)
  mutable rr : int; (* round-robin cursor for replica selection *)
  labels : (string * string) list;
      (* extra labels (e.g. session=..) prefixed to every per-worker
         labelled metric, so concurrent engines don't share series *)
  (* per-worker labelled gauges (exec.worker.*{worker="i"}), obtained
     once at pool creation and written in [flush] *)
  worker_gauges : (float ref * float ref * float ref) array;
  verdict : ('i, 'o) Nondet.witness -> exn;
  guard : 'a. (unit -> 'a) -> ('a, ('i, 'o) Nondet.witness) result;
}

let m_batches = Metrics.counter Metrics.default "exec.batches"
let h_batch_words = Metrics.histogram Metrics.default "exec.batch_words"
let m_planned = Metrics.counter Metrics.default "exec.planned_words"
let m_dedup = Metrics.counter Metrics.default "exec.dedup_hits"
let m_prefix_answers = Metrics.counter Metrics.default "exec.prefix_answers"
let m_runs = Metrics.counter Metrics.default "exec.runs"
let m_resumed = Metrics.counter Metrics.default "exec.resumed_runs"
let m_resets = Metrics.counter Metrics.default "exec.resets"
let m_steps = Metrics.counter Metrics.default "exec.steps"
let m_disagreements = Metrics.counter Metrics.default "exec.disagreements"
let m_vote_runs = Metrics.counter Metrics.default "exec.vote_runs"
let m_quarantines = Metrics.counter Metrics.default "exec.quarantines"
let g_workers = Metrics.gauge Metrics.default "exec.workers"
let g_utilization = Metrics.gauge Metrics.default "exec.worker_utilization"

let worker_label labels id = labels @ [ ("worker", string_of_int id) ]

let worker_strikes labels id =
  Metrics.counter_l Metrics.default "exec.worker.strikes"
    (worker_label labels id)

let worker_quarantines labels id =
  Metrics.counter_l Metrics.default "exec.worker.quarantines"
    (worker_label labels id)

let create (type i o) ?(config = default) ?(labels = []) ?cache
    ~(factory : int -> (i, o) Sul.t) () =
  if config.workers < 1 then invalid_arg "Engine.create: workers must be >= 1";
  if config.replicas < 1 then
    invalid_arg "Engine.create: replicas must be >= 1";
  if config.replicas > config.workers then
    invalid_arg "Engine.create: replicas cannot exceed workers";
  let workers =
    Array.init config.workers (fun id ->
        {
          id;
          sul = factory id;
          position = [||];
          position_outs = [||];
          runs_done = 0;
          resets_done = 0;
          steps_done = 0;
          strikes = 0;
          quarantined_until = 0;
        })
  in
  Metrics.set g_workers (float_of_int config.workers);
  let worker_gauges =
    Array.init config.workers (fun id ->
        ( Metrics.gauge_l Metrics.default "exec.worker.runs"
            (worker_label labels id),
          Metrics.gauge_l Metrics.default "exec.worker.resets"
            (worker_label labels id),
          Metrics.gauge_l Metrics.default "exec.worker.steps"
            (worker_label labels id) ))
  in
  (* This engine's own exception: {!guard} catches the verdicts of its
     engine only, so a fleet session never takes another's. *)
  let exception Verdict of (i, o) Nondet.witness in
  {
    config;
    workers;
    cache = (match cache with Some c -> c | None -> Cache.create ());
    stats = fresh_stats ();
    oracle_stats = Oracle.fresh_stats ();
    clock = 0;
    rr = 0;
    labels;
    worker_gauges;
    verdict = (fun w -> Verdict w);
    guard = (fun f -> try Ok (f ()) with Verdict w -> Error w);
  }

let guard t f = t.guard f

(* --- checkpointable pool state ---

   What survives a crash is the robustness bookkeeping: which workers
   were striking out or quarantined, and where the run/cooldown clock
   stood. Worker resume positions are deliberately dropped — a thawed
   pool's SUL instances start from reset, so a remembered position
   would be a lie. The blob is opaque to callers ({!Checkpoint} stores
   it verbatim): space-separated non-negative decimals, the worker
   count, clock and round-robin cursor, then runs done, strikes and
   quarantine end per worker. *)

let freeze t =
  let per_worker w = [ w.runs_done; w.strikes; w.quarantined_until ] in
  t.config.workers :: t.clock :: t.rr
  :: List.concat_map per_worker (Array.to_list t.workers)
  |> List.map string_of_int |> String.concat " "

let thaw t blob =
  let unreadable () = invalid_arg "Engine.thaw: unreadable state blob" in
  let int s =
    match int_of_string_opt s with Some n when n >= 0 -> n | _ -> unreadable ()
  in
  match List.map int (String.split_on_char ' ' blob) with
  | workers :: clock :: rr :: state when List.length state = 3 * workers ->
      if workers <> t.config.workers then
        invalid_arg
          (Printf.sprintf
             "Engine.thaw: pool size changed (checkpointed %d workers, pool \
              has %d)"
             workers t.config.workers);
      let state = Array.of_list state in
      Array.iteri
        (fun i w ->
          w.runs_done <- state.(3 * i);
          w.strikes <- state.((3 * i) + 1);
          w.quarantined_until <- state.((3 * i) + 2);
          w.position <- [||])
        t.workers;
      t.clock <- clock;
      t.rr <- rr
  | _ -> unreadable ()

let active_workers t =
  let active w = w.quarantined_until <= t.clock in
  if Array.for_all active t.workers then t.workers
  else
    match List.filter active (Array.to_list t.workers) with
    | [] -> t.workers (* unreachable: quarantine never empties the pool *)
    | a -> Array.of_list a

(* Per-call accounting, merged into the shared stats (and the
   quarantine clock) by [flush] once the call's runs are done. *)
type acct = {
  mutable a_runs : int;
  mutable a_resumed : int;
  mutable a_resets : int;
  mutable a_steps : int;
}

let fresh_acct () = { a_runs = 0; a_resumed = 0; a_resets = 0; a_steps = 0 }

(* How far [worker] can resume into coded word [ids]: the length of its
   position when that is a non-empty strict prefix of [ids], else -1. *)
let resume_len worker ids =
  let pos = worker.position in
  let k = Array.length pos in
  if k > 0 && k < Array.length ids && Plan.is_prefix pos ids then k else -1

(* Execute coded word [ids] on [worker], the one place symbols meet
   the SUL: each id is stepped as its symbol and each output comes back
   as its id. With [from] > 0 (a {!resume_len}) the worker skips the
   reset and steps only the suffix — the prefix outputs are the ones it
   observed getting there. Votes run with [from] = -1 so replicated
   answers stay independent of earlier runs. *)
let run_word t acct worker ~from ids =
  acct.a_runs <- acct.a_runs + 1;
  worker.runs_done <- worker.runs_done + 1;
  worker.position <- [||];
  let outs = Array.make (Array.length ids) 0 in
  let start =
    if from > 0 then (
      acct.a_resumed <- acct.a_resumed + 1;
      Array.blit worker.position_outs 0 outs 0 from;
      from)
    else (
      worker.sul.Sul.reset ();
      acct.a_resets <- acct.a_resets + 1;
      worker.resets_done <- worker.resets_done + 1;
      0)
  in
  let syms = Coder.symbols (Cache.inputs t.cache) in
  let coder = Cache.outputs t.cache in
  for k = start to Array.length ids - 1 do
    acct.a_steps <- acct.a_steps + 1;
    worker.steps_done <- worker.steps_done + 1;
    outs.(k) <- Coder.intern coder (worker.sul.Sul.step syms.(ids.(k)))
  done;
  worker.position <- ids;
  worker.position_outs <- outs;
  outs

let flush t acct =
  let s = t.stats in
  s.runs <- s.runs + acct.a_runs;
  s.resumed <- s.resumed + acct.a_resumed;
  s.resets <- s.resets + acct.a_resets;
  s.steps <- s.steps + acct.a_steps;
  t.clock <- t.clock + acct.a_runs;
  if acct.a_runs > 0 then Metrics.inc ~by:acct.a_runs m_runs;
  if acct.a_resumed > 0 then Metrics.inc ~by:acct.a_resumed m_resumed;
  if acct.a_resets > 0 then Metrics.inc ~by:acct.a_resets m_resets;
  if acct.a_steps > 0 then Metrics.inc ~by:acct.a_steps m_steps;
  let mx = Array.fold_left (fun m w -> max m w.runs_done) 0 t.workers in
  let mn =
    Array.fold_left (fun m w -> min m w.runs_done) max_int t.workers
  in
  if mx > 0 then Metrics.set g_utilization (float_of_int mn /. float_of_int mx);
  Array.iteri
    (fun i w ->
      let g_runs, g_resets, g_steps = t.worker_gauges.(i) in
      Metrics.set g_runs (float_of_int w.runs_done);
      Metrics.set g_resets (float_of_int w.resets_done);
      Metrics.set g_steps (float_of_int w.steps_done))
    t.workers

(* The engine's savings are reported against the no-reuse sequential
   oracle: every query the learner (or equivalence suite) asks costs
   one reset plus one step per symbol when executed directly. The
   boundary where that cost is counted is [membership] — before the
   cache, so hits, prefix answers, batch dedup and resume all show up
   as savings. *)
let count_baseline t ids =
  let s = t.stats in
  s.baseline_resets <- s.baseline_resets + 1;
  s.baseline_steps <- s.baseline_steps + Array.length ids

(* Longest usable resume position wins; ties go to the least-used
   worker so utilization stays balanced. Returns the worker and its
   {!resume_len}. *)
let pick_worker t ids =
  let a = active_workers t in
  let best = ref a.(0) and best_k = ref (resume_len a.(0) ids) in
  for i = 1 to Array.length a - 1 do
    let w = a.(i) in
    let k = resume_len w ids in
    if k > !best_k || (k = !best_k && w.runs_done < !best.runs_done) then begin
      best := w;
      best_k := k
    end
  done;
  (!best, !best_k)

let pick_replicas t n =
  let a = active_workers t in
  let k = Array.length a in
  let n = min n k in
  let start = t.rr in
  t.rr <- t.rr + 1;
  List.init n (fun i -> a.((start + i) mod k))

let strike t worker =
  worker.strikes <- worker.strikes + 1;
  Metrics.inc (worker_strikes t.labels worker.id);
  if
    worker.strikes >= t.config.max_strikes
    && Array.length (active_workers t) > 1
  then begin
    worker.quarantined_until <- t.clock + t.config.cooldown;
    worker.strikes <- 0;
    worker.position <- [||];
    t.stats.quarantines <- t.stats.quarantines + 1;
    Metrics.inc m_quarantines;
    Metrics.inc (worker_quarantines t.labels worker.id);
    if Trace.enabled () then
      Trace.event
        ~attrs:
          [
            ("worker", Jsonx.Int worker.id);
            ("until_run", Jsonx.Int worker.quarantined_until);
          ]
        "exec.quarantine"
  end

(* Replicated execution: the word runs in full on [replicas] distinct
   workers; agreement returns immediately, disagreement escalates to
   every active worker and takes the strict-majority answer, striking
   the outvoted workers (quarantine after [max_strikes], re-admitted
   after [cooldown] runs). No majority is the pool's verdict, the word
   with the tally of its answers — the paper's §5 check. *)
let vote t acct ids =
  let run w = (w, run_word t acct w ~from:(-1) ids) in
  let tally answers = Nondet.tally (List.map (fun (_, a) -> Array.to_list a) answers) in
  let answers = List.map run (pick_replicas t t.config.replicas) in
  t.stats.vote_runs <- t.stats.vote_runs + List.length answers - 1;
  if List.length answers > 1 then
    Metrics.inc ~by:(List.length answers - 1) m_vote_runs;
  match tally answers with
  | [ only ] -> Array.of_list only.Nondet.answer
  | _ ->
      t.stats.disagreements <- t.stats.disagreements + 1;
      Metrics.inc m_disagreements;
      if Trace.enabled () then
        Trace.event
          ~attrs:[ ("word_len", Jsonx.Int (Array.length ids)) ]
          "exec.disagreement";
      let chosen_ids = List.map (fun (w, _) -> w.id) answers in
      let rest =
        List.filter
          (fun w -> not (List.mem w.id chosen_ids))
          (Array.to_list (active_workers t))
      in
      let more = List.map run rest in
      t.stats.vote_runs <- t.stats.vote_runs + List.length more;
      if more <> [] then Metrics.inc ~by:(List.length more) m_vote_runs;
      let all = answers @ more in
      let obs = tally all in
      let best = List.hd obs in
      let total = List.length all in
      if 2 * best.Nondet.count > total then begin
        let majority = Array.of_list best.Nondet.answer in
        List.iter
          (fun (w, a) -> if not (Oracle.equal_ids a majority) then strike t w)
          all;
        majority
      end
      else
        let outs = Coder.symbols (Cache.outputs t.cache) in
        let decode (o : _ Nondet.observation) =
          { o with answer = List.map (Array.get outs) o.answer }
        in
        let word = Coder.decode (Cache.inputs t.cache) ids in
        raise (t.verdict { Nondet.word; answers = List.map decode obs })

(* Records a run in the cache. A conflict with a cached answer is the
   engine's other verdict: the word cut after the first differing
   output, with the cached and the fresh answer. *)
let insert t ids fresh =
  try Cache.insert_coded t.cache ids fresh
  with Cache.Conflict i ->
    let word = Coder.decode (Cache.inputs t.cache) (Array.sub ids 0 (i + 1)) in
    let cached = Option.get (Cache.lookup t.cache word) in
    let fresh = Coder.decode (Cache.outputs t.cache) (Array.sub fresh 0 (i + 1)) in
    let answer a = { Nondet.answer = a; count = 1 } in
    raise (t.verdict { Nondet.word; answers = [ answer cached; answer fresh ] })

(* A sequential run, with the worker picked for the longest resume. *)
let run_picked t acct ids =
  let worker, from = pick_worker t ids in
  run_word t acct worker ~from ids

let exec_word t ids =
  let acct = fresh_acct () in
  let outs =
    if t.config.replicas > 1 then vote t acct ids else run_picked t acct ids
  in
  flush t acct;
  outs

(* Plan the batch of coded words, insert each run into the cache as it
   completes, and answer every word from the outputs of the run that
   covers it. *)
let exec_batch t (batch : int array array) =
  let plan = Plan.build batch in
  let s = t.stats in
  s.batches <- s.batches + 1;
  Metrics.inc m_batches;
  Metrics.observe h_batch_words (float_of_int plan.Plan.words);
  s.planned_words <- s.planned_words + plan.Plan.words;
  Metrics.inc ~by:plan.Plan.words m_planned;
  if plan.Plan.dupes > 0 then begin
    s.dedup_hits <- s.dedup_hits + plan.Plan.dupes;
    Metrics.inc ~by:plan.Plan.dupes m_dedup
  end;
  if plan.Plan.subsumed > 0 then begin
    s.prefix_answers <- s.prefix_answers + plan.Plan.subsumed;
    Metrics.inc ~by:plan.Plan.subsumed m_prefix_answers
  end;
  let runs = Array.map (fun i -> batch.(i)) plan.Plan.runs in
  let outs = Array.make (Array.length runs) [||] in
  let acct = fresh_acct () in
  let finish r o =
    insert t runs.(r) o;
    outs.(r) <- o
  in
  let execute () =
    if t.config.replicas > 1 then
      Array.iteri (fun r ids -> finish r (vote t acct ids)) runs
    else
      Array.iteri
        (fun r ids ->
          if Trace.enabled () then
            Trace.with_span
              ~attrs:[ ("len", Jsonx.Int (Array.length ids)) ]
              "oracle.mq"
              (fun () -> finish r (run_picked t acct ids))
          else finish r (run_picked t acct ids))
        runs
  in
  if Trace.enabled () then
    Trace.with_span
      ~attrs:
        [
          ("words", Jsonx.Int plan.Plan.words);
          ("runs", Jsonx.Int (Array.length runs));
        ]
      "exec.batch" execute
  else execute ();
  flush t acct;
  Array.mapi
    (fun i ids ->
      let o = outs.(plan.Plan.cover.(i)) in
      let n = Array.length ids in
      if n = Array.length o then o else Array.sub o 0 n)
    batch

(* Every word crossing this boundary counts toward the no-reuse
   sequential baseline, including the ones the cache answers; the
   words that miss reach the pool and count as the oracle's queries. *)
let membership t =
  let stats = t.oracle_stats in
  let run ids =
    count_baseline t ids;
    match Cache.find_coded t.cache ids with
    | Some answer -> answer
    | None ->
        let answer =
          Oracle.run_query stats (Array.length ids) (fun () -> exec_word t ids)
        in
        insert t ids answer;
        answer
  in
  (* One cache walk per word: hits are answered from it, and only the
     misses go on to be planned. *)
  let run_batch words =
    Array.iter (count_baseline t) words;
    let found = Array.map (Cache.find_coded t.cache) words in
    let missing = Array.make (Array.length words) [||] and n = ref 0 in
    for i = 0 to Array.length words - 1 do
      if Option.is_none found.(i) then (
        missing.(!n) <- words.(i);
        incr n)
    done;
    let missing = Array.sub missing 0 !n in
    Array.iter (fun ids -> Oracle.count_query stats (Array.length ids)) missing;
    let answers = if !n = 0 then [||] else exec_batch t missing in
    let next = ref (-1) in
    Array.map (function Some a -> a | None -> incr next; answers.(!next)) found
  in
  Oracle.of_coded stats
    {
      inputs = Cache.inputs t.cache;
      outputs = Cache.outputs t.cache;
      run;
      run_batch = (if t.config.batch then Some run_batch else None);
    }

let config t = t.config
let stats t = t.stats
let oracle_stats t = t.oracle_stats
let cache_stats t = (Cache.hits t.cache, Cache.misses t.cache)
let worker_runs t = Array.map (fun w -> w.runs_done) t.workers
let saved_resets t = t.stats.baseline_resets - t.stats.resets
let saved_steps t = t.stats.baseline_steps - t.stats.steps

let quarantined t =
  Array.to_list t.workers
  |> List.filter (fun w -> w.quarantined_until > t.clock)
  |> List.map (fun w -> w.id)

let stats_json t =
  let s = t.stats in
  let hits, misses = cache_stats t in
  Jsonx.Obj
    [
      ("schema", Jsonx.String "prognosis.exec/1");
      ("workers", Jsonx.Int t.config.workers);
      ("replicas", Jsonx.Int t.config.replicas);
      ("batch", Jsonx.Bool t.config.batch);
      ("batches", Jsonx.Int s.batches);
      ("planned_words", Jsonx.Int s.planned_words);
      ("dedup_hits", Jsonx.Int s.dedup_hits);
      ("prefix_answers", Jsonx.Int s.prefix_answers);
      ("runs", Jsonx.Int s.runs);
      ("resumed_runs", Jsonx.Int s.resumed);
      ("resets", Jsonx.Int s.resets);
      ("steps", Jsonx.Int s.steps);
      ("baseline_resets", Jsonx.Int s.baseline_resets);
      ("baseline_steps", Jsonx.Int s.baseline_steps);
      ("saved_resets", Jsonx.Int (saved_resets t));
      ("saved_steps", Jsonx.Int (saved_steps t));
      ("cache_hits", Jsonx.Int hits);
      ("cache_misses", Jsonx.Int misses);
      ("disagreements", Jsonx.Int s.disagreements);
      ("vote_runs", Jsonx.Int s.vote_runs);
      ("quarantines", Jsonx.Int s.quarantines);
      ( "worker_runs",
        Jsonx.List
          (Array.to_list
             (Array.map (fun w -> Jsonx.Int w.runs_done) t.workers)) );
      ( "quarantined_workers",
        Jsonx.List (List.map (fun id -> Jsonx.Int id) (quarantined t)) );
    ]
