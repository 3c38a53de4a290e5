module Mealy = Prognosis_automata.Mealy
module Learn = Prognosis_learner.Learn
module Cache = Prognosis_learner.Cache
module Engine = Prognosis_exec.Engine
module Library = Prognosis_fingerprint.Library
module Splitter = Prognosis_fingerprint.Splitter
module Identify = Prognosis_fingerprint.Identify
module Jsonx = Prognosis_obs.Jsonx
module Trace = Prognosis_obs.Trace
module Metrics = Prognosis_obs.Metrics
module Nondet = Prognosis_sul.Nondet
open Prognosis

type op = Learn | Identify

type job = {
  op : op;
  subject : Subject.t;
  seed : int64;
  algorithm : Learn.algorithm;
}

let job ?(seed = 1L) ?(algorithm = Learn.Ttt_tree) op subject =
  { op; subject; seed; algorithm }

let op_name = function Learn -> "learn" | Identify -> "identify"
let algo_name = function Learn.Ttt_tree -> "ttt" | Learn.L_star -> "lstar"

(* --- jobs.json (prognosis.jobs/1) --- *)

let jobs_schema = "prognosis.jobs/1"
let ( let* ) = Result.bind

let job_of_json i j =
  let ctx msg = Error (Printf.sprintf "job %d: %s" i msg) in
  let* op =
    match Option.bind (Jsonx.member "op" j) Jsonx.to_string_opt with
    | Some "learn" -> Ok Learn
    | Some "identify" -> Ok Identify
    | Some other -> ctx (Printf.sprintf "unknown op %S" other)
    | None -> ctx "missing \"op\" (learn or identify)"
  in
  let* subject =
    match Option.bind (Jsonx.member "subject" j) Jsonx.to_string_opt with
    | None -> ctx "missing \"subject\""
    | Some name -> (
        match Subject.of_name name with Ok s -> Ok s | Error e -> ctx e)
  in
  let* seed =
    match Jsonx.member "seed" j with
    | None -> Ok 1L
    | Some (Jsonx.Int n) -> Ok (Int64.of_int n)
    | Some (Jsonx.String s) -> (
        match Int64.of_string_opt s with
        | Some v -> Ok v
        | None -> ctx (Printf.sprintf "bad seed %S" s))
    | Some _ -> ctx "seed must be an integer"
  in
  let* algorithm =
    match Option.bind (Jsonx.member "algorithm" j) Jsonx.to_string_opt with
    | None | Some "ttt" -> Ok Learn.Ttt_tree
    | Some "lstar" -> Ok Learn.L_star
    | Some other -> ctx (Printf.sprintf "unknown algorithm %S" other)
  in
  Ok { op; subject; seed; algorithm }

let jobs_of_json json =
  let* () =
    match Option.bind (Jsonx.member "schema" json) Jsonx.to_string_opt with
    | Some s when s = jobs_schema -> Ok ()
    | Some s -> Error (Printf.sprintf "expected schema %s, got %s" jobs_schema s)
    | None -> Error (Printf.sprintf "missing schema (expected %s)" jobs_schema)
  in
  match Jsonx.member "jobs" json with
  | Some (Jsonx.List items) ->
      let rec go i = function
        | [] -> Ok []
        | j :: rest ->
            let* job = job_of_json i j in
            let* jobs = go (i + 1) rest in
            Ok (job :: jobs)
      in
      go 0 items
  | Some _ -> Error "\"jobs\" must be a list"
  | None -> Error "missing \"jobs\" list"

let jobs_of_string text =
  match Jsonx.of_string_opt text with
  | None -> Error "jobs file is not valid JSON"
  | Some json -> jobs_of_json json

(* --- results --- *)

type outcome =
  | Learned of {
      canonical : string;
      states : int;
      transitions : int;
      rounds : int;
    }
  | Identified of Identify.result

type session = {
  index : int;
  s_op : op;
  endpoint : string;
  s_seed : int64;
  s_algorithm : Learn.algorithm;
  outcome : outcome;
  membership_queries : int;
  membership_symbols : int;
  test_words : int;
  cache_hits : int;
  cache_misses : int;
  elapsed_s : float;
}

type shared_cache = {
  cache_endpoint : string;
  hits : int;
  misses : int;
  nodes : int;
}

type verdict = {
  at : int;
  job : job;
  witness : (string, string) Nondet.witness;
}

type t = {
  sessions : session list;
  verdicts : verdict list;
  shared : shared_cache list;
  domains : int;
  elapsed_s : float;
  sessions_per_sec : float;
}

let total_membership_queries t =
  List.fold_left (fun acc s -> acc + s.membership_queries) 0 t.sessions

let shared_hits t = List.fold_left (fun acc c -> acc + c.hits) 0 t.shared

(* --- sessions --- *)

(* Both kinds of session probe the endpoint through an engine in front
   of a view of the endpoint's shared cache, so every query crosses
   one cache layer and the view's tallies are the session's own. Learn
   sessions take the engine-level learn path at the string level, with
   the descriptor's equivalence oracle and SULs from the subject's
   [factory], so they share the cache with identify sessions. Either
   returns the engine's verdict when the endpoint answers
   inconsistently. *)
let run_learn ~cache ~config ~labels (job : job) =
  let s = job.subject in
  Pipeline.learn ~exec:config ~cache ~labels ~subject:s.Subject.name
    ~seed:job.seed ~algorithm:job.algorithm ~inputs:s.Subject.inputs
    ~factory:s.Subject.factory ~eq:(s.Subject.eq ~seed:job.seed) ()
  |> Result.map @@ fun (model, r) ->
  ( Learned
      {
        canonical =
          Persist.text_of_model ~kind:s.Subject.kind ~input_to_string:Fun.id
            ~output_to_string:Fun.id model;
        states = r.Report.states;
        transitions = r.Report.transitions;
        rounds = r.Report.equivalence_rounds;
      },
    ( r.Report.membership_queries,
      r.Report.membership_symbols,
      r.Report.test_words,
      r.Report.cache_hits,
      r.Report.cache_misses ) )

let run_identify ~cache ~tree ~config ~labels (job : job) =
  let engine =
    Engine.create ~config ~labels ~cache
      ~factory:
        (job.subject.Subject.factory ~seed:job.seed
           ~workers:config.Engine.workers)
      ()
  in
  Engine.guard engine (fun () -> Identify.run ~mq:(Engine.membership engine) tree)
  |> Result.map @@ fun r ->
  let stats = Engine.oracle_stats engine in
  let hits, misses = Engine.cache_stats engine in
  ( Identified r,
    ( stats.Prognosis_learner.Oracle.membership_queries,
      stats.Prognosis_learner.Oracle.membership_symbols,
      stats.Prognosis_learner.Oracle.test_words,
      hits,
      misses ) )

(* --- the scheduler --- *)

let default_config = { Engine.default with Engine.batch = true }

(* The next job for a domain that needs work: the first untaken job, in
   job order, whose endpoint has no session running, so that sessions
   of one endpoint follow each other and each finds the answers the
   last one cached; else the first untaken job. With nothing running
   (one domain) that is job order. *)
let pick ~endpoint ~taken ~busy =
  let n = Array.length endpoint in
  let rec go i first =
    if i = n then first
    else if taken.(i) then go (i + 1) first
    else if not (busy endpoint.(i)) then Some i
    else go (i + 1) (if first = None then Some i else first)
  in
  go 0 None

(* Resident helper domains, spawned on first use and kept for the life
   of the process (spawning and joining a domain per run churns the
   major heap). Between runs they wait on [wake]. A run offers [seats];
   a helper that takes one runs [work] and leaves ([inside]), and the
   run, once its own share of the work is done, withdraws the seats
   nobody took and waits on [back] for the rest. Helpers are counted
   when spawned, so a process never holds more than the largest
   [domains - 1] it was asked for. [work] never raises: each session's
   exception is kept for its job. *)
type pool = {
  lock : Mutex.t;
  wake : Condition.t;
  back : Condition.t;
  mutable helpers : int;
  mutable work : unit -> unit;
  mutable seats : int;
  mutable inside : int;
  mutable held : bool; (* a run is using the helpers *)
}

let pool =
  {
    lock = Mutex.create ();
    wake = Condition.create ();
    back = Condition.create ();
    helpers = 0;
    work = ignore;
    seats = 0;
    inside = 0;
    held = false;
  }

let g_helpers = Metrics.gauge Metrics.default "service.helper_domains"

let helper () =
  while true do
    let work =
      Mutex.protect pool.lock (fun () ->
          while pool.seats = 0 do
            Condition.wait pool.wake pool.lock
          done;
          pool.seats <- pool.seats - 1;
          pool.inside <- pool.inside + 1;
          pool.work)
    in
    work ();
    Mutex.protect pool.lock (fun () ->
        pool.inside <- pool.inside - 1;
        if pool.inside = 0 then Condition.signal pool.back)
  done

(* Runs [work] on the calling domain and up to [domains - 1] helpers;
   returns the number of domains offered it. A run that finds the
   helpers held by a concurrent one runs alone. *)
let on_domains domains work =
  let seats =
    if domains = 1 then 0
    else
      Mutex.protect pool.lock (fun () ->
          if pool.held then 0
          else begin
            while pool.helpers < domains - 1 do
              ignore (Domain.spawn helper : unit Domain.t);
              pool.helpers <- pool.helpers + 1
            done;
            (* on every run: [Metrics.reset] zeroes gauges *)
            Metrics.set g_helpers (float_of_int pool.helpers);
            pool.held <- true;
            pool.work <- work;
            pool.seats <- domains - 1;
            Condition.broadcast pool.wake;
            domains - 1
          end)
  in
  work ();
  if seats > 0 then
    Mutex.protect pool.lock (fun () ->
        pool.seats <- 0;
        while pool.inside > 0 do
          Condition.wait pool.back pool.lock
        done;
        pool.held <- false;
        pool.work <- ignore);
  1 + seats

let run ?(domains = 1) ?(config = default_config) ?library ~jobs () =
  let jobs = Array.of_list jobs in
  let n = Array.length jobs in
  (* Resident splitter forest: built (and its entry models packed)
     once on this domain before fan-out — [Mealy.Packed.pack]
     memoizes on the model record and is not safe to race. *)
  let* forest =
    if Array.exists (fun j -> j.op = Identify) jobs then
      match library with
      | None -> Error "identify jobs require a model library"
      | Some lib ->
          List.iter
            (fun (e : Library.entry) ->
              ignore (Mealy.Packed.pack e.Library.model))
            lib.Library.entries;
          (* An entry holding an input the endpoint lacks is refused
             here, before any session steps the endpoint on it. *)
          let rec check i =
            if i = n then Ok ()
            else if jobs.(i).op <> Identify then check (i + 1)
            else
              match Subject.check_library jobs.(i).subject lib with
              | Ok () -> check (i + 1)
              | Error e -> Error (Printf.sprintf "job %d: %s" i e)
          in
          let* () = check 0 in
          Splitter.of_library lib
    else Ok []
  in
  (* One shared cache per endpoint configuration: sessions
     probing behaviourally identical endpoints (same subject name —
     SUL answers are seed-invariant) pool their answers; distinct
     configurations must not, they answer differently. Endpoints are
     numbered in first-appearance order. *)
  let ids = Hashtbl.create 8 and names = ref [] in
  let endpoint =
    Array.map
      (fun j ->
        let name = j.subject.Subject.name in
        match Hashtbl.find_opt ids name with
        | Some e -> e
        | None ->
            let e = Hashtbl.length ids in
            Hashtbl.add ids name e;
            names := name :: !names;
            e)
      jobs
  in
  let names = Array.of_list (List.rev !names) in
  let caches = Array.map (fun _ -> Cache.Shared.create ()) names in
  let tree_for (j : job) =
    Option.value ~default:(Splitter.Leaf None)
      (List.assoc_opt j.subject.Subject.kind forest)
  in
  let run_session i (job : job) =
    let cache = Cache.shared caches.(endpoint.(i)) in
    let labels = [ ("session", string_of_int i) ] in
    let t0 = Unix.gettimeofday () in
    (match job.op with
    | Learn -> run_learn ~cache ~config ~labels job
    | Identify -> run_identify ~cache ~tree:(tree_for job) ~config ~labels job)
    |> Result.map_error (fun witness -> { at = i; job; witness })
    |> Result.map
       @@ fun (outcome, (queries, symbols, test_words, hits, misses)) ->
    {
      index = i;
      s_op = job.op;
      endpoint = job.subject.Subject.name;
      s_seed = job.seed;
      s_algorithm = job.algorithm;
      outcome;
      membership_queries = queries;
      membership_symbols = symbols;
      test_words;
      cache_hits = hits;
      cache_misses = misses;
      elapsed_s = Unix.gettimeofday () -. t0;
    }
  in
  let results = Array.make n None in
  let m = Mutex.create () in
  let taken = Array.make n false in
  let running = Array.make (Array.length names) 0 in
  (* One critical section per session: release the endpoint of the job
     just finished, then take the next job. *)
  let next finished =
    Mutex.protect m (fun () ->
        let count i d = running.(endpoint.(i)) <- running.(endpoint.(i)) + d in
        Option.iter (fun i -> count i (-1)) finished;
        let i = pick ~endpoint ~taken ~busy:(fun e -> running.(e) > 0) in
        Option.iter
          (fun i ->
            taken.(i) <- true;
            count i 1)
          i;
        i)
  in
  let rec work finished =
    match next finished with
    | None -> ()
    | Some i ->
        results.(i) <-
          Some
            (try Ok (run_session i jobs.(i))
             with e -> Error (e, Printexc.get_raw_backtrace ()));
        work (Some i)
  in
  (* The trace sink is not domain-safe, so a traced run degrades to
     a sequential fleet. *)
  let domains =
    let d = max 1 (min domains (max n 1)) in
    if Trace.enabled () then 1 else d
  in
  let t0 = Unix.gettimeofday () in
  let domains = on_domains domains (fun () -> work None) in
  let elapsed_s = Unix.gettimeofday () -. t0 in
  (* A verdict belongs to its session; any other failure is a bug
     and surfaces in job order, so a multi-failure fleet reports
     deterministically whichever job comes first. *)
  let sessions, verdicts =
    List.partition_map
      (function
        | Some (Ok (Ok s)) -> Either.Left s
        | Some (Ok (Error v)) -> Either.Right v
        | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
        | None -> assert false)
      (Array.to_list results)
  in
  (* one per distinct endpoint, in first-appearance order; a cache's
     tallies are the sum of its sessions' views *)
  let shared =
    Array.to_list names
    |> List.mapi (fun e name ->
           let c = caches.(e) in
           let sum f =
             List.fold_left
               (fun acc s -> if s.endpoint = name then acc + f s else acc)
               0 sessions
           in
           {
             cache_endpoint = name;
             hits = sum (fun s -> s.cache_hits);
             misses = sum (fun s -> s.cache_misses);
             nodes = Cache.Shared.size c;
           })
  in
  Ok
    {
      sessions;
      verdicts;
      shared;
      domains;
      elapsed_s;
      sessions_per_sec =
        (if elapsed_s > 0.0 then float_of_int n /. elapsed_s else 0.0);
    }

(* --- report block --- *)

let schema = "prognosis.service/1"

let session_json s =
  let base =
    [
      ("index", Jsonx.Int s.index);
      ("op", Jsonx.String (op_name s.s_op));
      (* deliberately not named "subject": report diffing aligns list
         elements by their "subject" field, and a fleet may run the
         same endpoint several times — index alignment is the stable
         choice here *)
      ("endpoint", Jsonx.String s.endpoint);
      ("seed", Jsonx.String (Int64.to_string s.s_seed));
      ("algorithm", Jsonx.String (algo_name s.s_algorithm));
      ("membership_queries", Jsonx.Int s.membership_queries);
      ("membership_symbols", Jsonx.Int s.membership_symbols);
      ("test_words", Jsonx.Int s.test_words);
      ("cache_hits", Jsonx.Int s.cache_hits);
      ("cache_misses", Jsonx.Int s.cache_misses);
      ("elapsed_s", Jsonx.Float s.elapsed_s);
    ]
  in
  let outcome =
    match s.outcome with
    | Learned l ->
        [
          ("outcome", Jsonx.String "learned");
          ("states", Jsonx.Int l.states);
          ("transitions", Jsonx.Int l.transitions);
          ("rounds", Jsonx.Int l.rounds);
        ]
    | Identified r ->
        let verdict =
          match r.Identify.outcome with
          | Identify.Known e -> [ ("outcome", Jsonx.String "known");
                                  ("identified_as", Jsonx.String e.Library.name) ]
          | Identify.Novel _ -> [ ("outcome", Jsonx.String "novel") ]
        in
        verdict
        @ [
            ("words_asked", Jsonx.Int r.Identify.words_asked);
            ("symbols_asked", Jsonx.Int r.Identify.symbols_asked);
            ("walk_words", Jsonx.Int r.Identify.walk_words);
            ("confirm_words", Jsonx.Int r.Identify.confirm_words);
          ]
  in
  Jsonx.Obj (base @ outcome)

let shared_json c =
  Jsonx.Obj
    [
      ("endpoint", Jsonx.String c.cache_endpoint);
      ("hits", Jsonx.Int c.hits);
      ("misses", Jsonx.Int c.misses);
      ("nodes", Jsonx.Int c.nodes);
    ]

let verdict_json v =
  let strings l = Jsonx.List (List.map (fun x -> Jsonx.String x) l) in
  let answer (o : _ Nondet.observation) =
    Jsonx.Obj [ ("answer", strings o.answer); ("count", Jsonx.Int o.count) ]
  in
  Jsonx.Obj
    [
      ("index", Jsonx.Int v.at);
      ("op", Jsonx.String (op_name v.job.op));
      ("endpoint", Jsonx.String v.job.subject.Subject.name);
      ("word", strings v.witness.Nondet.word);
      ("answers", Jsonx.List (List.map answer v.witness.Nondet.answers));
    ]

(* A clean fleet's block is unchanged: "verdicts" appears only when a
   session was stopped by one. *)
let to_json t =
  Jsonx.Obj
    ([
      ("schema", Jsonx.String schema);
      ("domains", Jsonx.Int t.domains);
      ("jobs", Jsonx.Int (List.length t.sessions + List.length t.verdicts));
      ("elapsed_s", Jsonx.Float t.elapsed_s);
      ("sessions_per_sec", Jsonx.Float t.sessions_per_sec);
      ("total_membership_queries", Jsonx.Int (total_membership_queries t));
      ("shared_cache_hits", Jsonx.Int (shared_hits t));
      ("sessions", Jsonx.List (List.map session_json t.sessions));
      ("shared_caches", Jsonx.List (List.map shared_json t.shared));
    ]
    @
    match t.verdicts with
    | [] -> []
    | vs -> [ ("verdicts", Jsonx.List (List.map verdict_json vs)) ])

let pp_session fmt s =
  let outcome =
    match s.outcome with
    | Learned l -> Printf.sprintf "learned %d states" l.states
    | Identified r -> (
        match r.Identify.outcome with
        | Identify.Known e -> "known: " ^ e.Library.name
        | Identify.Novel _ -> "novel")
  in
  Format.fprintf fmt "#%d %s %s (seed %Ld): %s, %d queries, %.3fs" s.index
    (op_name s.s_op) s.endpoint s.s_seed outcome s.membership_queries
    s.elapsed_s

let pp_verdict fmt v =
  Format.fprintf fmt "#%d %s %s (seed %Ld): nondeterministic" v.at
    (op_name v.job.op) v.job.subject.Subject.name v.job.seed

(* Finished and stopped sessions, one line each in job order. *)
let pp fmt t =
  let lines =
    List.map (fun s -> (s.index, Format.asprintf "%a" pp_session s)) t.sessions
    @ List.map (fun v -> (v.at, Format.asprintf "%a" pp_verdict v)) t.verdicts
  in
  Format.fprintf fmt "@[<v>";
  List.iter (fun (_, l) -> Format.fprintf fmt "%s@," l) (List.sort compare lines);
  Format.fprintf fmt
    "%d session(s) on %d domain(s) in %.3fs (%.2f sessions/s), %d shared \
     cache hit(s)@]"
    (List.length lines) t.domains t.elapsed_s t.sessions_per_sec
    (shared_hits t)
