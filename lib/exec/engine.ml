module Sul = Prognosis_sul.Sul
module Nondet = Prognosis_sul.Nondet
module Cache = Prognosis_learner.Cache
module Oracle = Prognosis_learner.Oracle
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
  mutable position : ('i list * int * 'o list) option;
      (* word replayed since the last reset, its length, and the
         outputs this worker observed; [None] = state unknown, the next
         run must reset *)
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

let create ?(config = default) ?(labels = []) ?cache ~factory () =
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
          position = None;
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
  }

(* --- checkpointable pool state ---

   What survives a crash is the robustness bookkeeping: which workers
   were striking out or quarantined, and where the run/cooldown clock
   stood. Worker resume positions are deliberately dropped — a thawed
   pool's SUL instances start from reset, so a remembered position
   would be a lie. The blob is opaque to callers ({!Checkpoint} stores
   it verbatim). *)

type frozen = {
  f_workers : int;
  f_state : (int * int * int) array; (* runs_done, strikes, quarantined_until *)
  f_clock : int;
  f_rr : int;
}

let freeze t =
  Marshal.to_string
    {
      f_workers = t.config.workers;
      f_state =
        Array.map (fun w -> (w.runs_done, w.strikes, w.quarantined_until)) t.workers;
      f_clock = t.clock;
      f_rr = t.rr;
    }
    []

let thaw t blob =
  match (Marshal.from_string blob 0 : frozen) with
  | exception _ -> invalid_arg "Engine.thaw: unreadable state blob"
  | f ->
      if f.f_workers <> t.config.workers then
        invalid_arg
          (Printf.sprintf
             "Engine.thaw: pool size changed (checkpointed %d workers, pool \
              has %d)"
             f.f_workers t.config.workers);
      Array.iteri
        (fun i w ->
          let runs_done, strikes, quarantined_until = f.f_state.(i) in
          w.runs_done <- runs_done;
          w.strikes <- strikes;
          w.quarantined_until <- quarantined_until;
          w.position <- None)
        t.workers;
      t.clock <- f.f_clock;
      t.rr <- f.f_rr

let active_workers t =
  let active w = w.quarantined_until <= t.clock in
  if Array.for_all active t.workers then t.workers
  else
    match List.filter active (Array.to_list t.workers) with
    | [] -> t.workers (* unreachable: quarantine never empties the pool *)
    | a -> Array.of_list a

let rec drop n l =
  if n = 0 then l else match l with [] -> [] | _ :: r -> drop (n - 1) r

(* Per-call accounting, merged into the shared stats (and the
   quarantine clock) by [flush] once the call's runs are done. *)
type acct = {
  mutable a_runs : int;
  mutable a_resumed : int;
  mutable a_resets : int;
  mutable a_steps : int;
}

let fresh_acct () = { a_runs = 0; a_resumed = 0; a_resets = 0; a_steps = 0 }

let step_word acct worker word =
  List.map
    (fun x ->
      acct.a_steps <- acct.a_steps + 1;
      worker.steps_done <- worker.steps_done + 1;
      worker.sul.Sul.step x)
    word

(* How far [worker] can resume into [word] of length [len]: the length
   of its position when that is a non-empty strict prefix of [word],
   else -1. *)
let resume_len worker word len =
  match worker.position with
  | Some (pos, k, _) when k > 0 && k < len && Plan.is_prefix pos word -> k
  | _ -> -1

(* Execute [word] (of length [len]) on [worker]. With [from] > 0 (a
   {!resume_len}) the worker skips the reset and steps only the suffix
   — the prefix outputs are the ones it observed getting there. Votes
   run with [from] = -1 so replicated answers stay independent of
   earlier runs. *)
let run_word acct worker ~from word len =
  acct.a_runs <- acct.a_runs + 1;
  worker.runs_done <- worker.runs_done + 1;
  let pos = worker.position in
  worker.position <- None;
  let prefix_outs, suffix =
    match pos with
    | Some (_, _, pos_outs) when from > 0 ->
        acct.a_resumed <- acct.a_resumed + 1;
        (pos_outs, drop from word)
    | _ ->
        worker.sul.Sul.reset ();
        acct.a_resets <- acct.a_resets + 1;
        worker.resets_done <- worker.resets_done + 1;
        ([], word)
  in
  let outs = prefix_outs @ step_word acct worker suffix in
  worker.position <- Some (word, len, outs);
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
let count_baseline t word =
  let s = t.stats in
  s.baseline_resets <- s.baseline_resets + 1;
  s.baseline_steps <- s.baseline_steps + List.length word

(* Longest usable resume position wins; ties go to the least-used
   worker so utilization stays balanced. Returns the worker and its
   {!resume_len}. *)
let pick_worker t word len =
  let a = active_workers t in
  let best = ref a.(0) and best_k = ref (resume_len a.(0) word len) in
  for i = 1 to Array.length a - 1 do
    let w = a.(i) in
    let k = resume_len w word len in
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

let tally answers =
  let rec add obs a =
    match obs with
    | [] -> [ { Nondet.answer = a; count = 1 } ]
    | o :: rest ->
        if o.Nondet.answer = a then { o with Nondet.count = o.count + 1 } :: rest
        else o :: add rest a
  in
  List.sort
    (fun a b -> compare b.Nondet.count a.Nondet.count)
    (List.fold_left add [] (List.map snd answers))

let strike t worker =
  worker.strikes <- worker.strikes + 1;
  Metrics.inc (worker_strikes t.labels worker.id);
  if
    worker.strikes >= t.config.max_strikes
    && Array.length (active_workers t) > 1
  then begin
    worker.quarantined_until <- t.clock + t.config.cooldown;
    worker.strikes <- 0;
    worker.position <- None;
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
   after [cooldown] runs). No majority means the pool as a whole
   answers nondeterministically — exactly the situation the paper's §5
   check reports. *)
let vote t acct word =
  let len = List.length word in
  let run w = (w, run_word acct w ~from:(-1) word len) in
  let answers = List.map run (pick_replicas t t.config.replicas) in
  t.stats.vote_runs <- t.stats.vote_runs + List.length answers - 1;
  if List.length answers > 1 then
    Metrics.inc ~by:(List.length answers - 1) m_vote_runs;
  match tally answers with
  | [ only ] -> only.Nondet.answer
  | _ ->
      t.stats.disagreements <- t.stats.disagreements + 1;
      Metrics.inc m_disagreements;
      if Trace.enabled () then
        Trace.event
          ~attrs:[ ("word_len", Jsonx.Int len) ]
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
        let majority = best.Nondet.answer in
        List.iter (fun (w, a) -> if a <> majority then strike t w) all;
        majority
      end
      else
        raise
          (Nondet.Nondeterministic_sul
             (Printf.sprintf
                "query pool: no majority on a %d-symbol word (%d distinct \
                 answers over %d runs)"
                len (List.length obs) total))

(* A sequential run, with the worker picked for the longest resume. *)
let run_picked t acct word =
  let len = List.length word in
  let worker, from = pick_worker t word len in
  run_word acct worker ~from word len

let exec_word t word =
  let acct = fresh_acct () in
  let outs =
    if t.config.replicas > 1 then vote t acct word else run_picked t acct word
  in
  flush t acct;
  outs

(* [outs] cut to the length of [word], a prefix of the run they
   answer. *)
let rec cut word outs =
  match (word, outs) with
  | [], _ -> []
  | _ :: w, o :: os -> o :: cut w os
  | _ :: _, [] -> assert false

(* Plan the batch, insert each run into the cache as it completes, and
   answer every word from the outputs of the run that covers it. *)
let exec_batch t words =
  let plan = Plan.build words in
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
  let runs = Array.of_list plan.Plan.runs in
  let outs = Array.make (Array.length runs) [] in
  let acct = fresh_acct () in
  let finish r o =
    Cache.insert t.cache runs.(r) o;
    outs.(r) <- o
  in
  let execute () =
    if t.config.replicas > 1 then
      Array.iteri (fun r w -> finish r (vote t acct w)) runs
    else
      Array.iteri
        (fun r w ->
          let run () = finish r (run_picked t acct w) in
          if Trace.enabled () then
            Trace.with_span
              ~attrs:[ ("len", Jsonx.Int (List.length w)) ]
              "oracle.mq" run
          else run ())
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
  List.mapi
    (fun i w ->
      let o = outs.(plan.Plan.cover.(i)) in
      if List.compare_lengths w o = 0 then o else cut w o)
    words

let membership t =
  let raw =
    Oracle.of_fun ~stats:t.oracle_stats
      ?batch:(if t.config.batch then Some (exec_batch t) else None)
      (exec_word t)
  in
  let cached = Cache.wrap t.cache raw in
  (* Count the no-reuse sequential baseline for every query crossing
     the learner boundary — including the ones the cache answers. *)
  let ask word =
    count_baseline t word;
    cached.Oracle.ask word
  in
  (* One cache walk per word: hits are answered from it, and only the
     misses go on to be planned. *)
  let ask_batch =
    Option.map
      (fun batch words ->
        List.iter (count_baseline t) words;
        let found = List.map (Cache.find t.cache) words in
        let missing =
          List.fold_right2
            (fun w a acc -> if Option.is_none a then w :: acc else acc)
            words found []
        in
        let answers = if missing = [] then [] else batch missing in
        let rec stitch found answers =
          match (found, answers) with
          | [], _ -> []
          | Some a :: found, answers -> a :: stitch found answers
          | None :: found, a :: answers -> a :: stitch found answers
          | None :: _, [] -> assert false
        in
        stitch found answers)
      raw.Oracle.ask_batch
  in
  { cached with Oracle.ask; ask_batch }

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
