module Mealy = Prognosis_automata.Mealy
module Learn = Prognosis_learner.Learn
module Cache = Prognosis_learner.Cache
module Engine = Prognosis_exec.Engine
module Library = Prognosis_fingerprint.Library
module Splitter = Prognosis_fingerprint.Splitter
module Identify = Prognosis_fingerprint.Identify
module Jsonx = Prognosis_obs.Jsonx
module Trace = Prognosis_obs.Trace
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
  shard_count : int;
  hits : int;
  misses : int;
  nodes : int;
}

type t = {
  sessions : session list;
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
   [factory], so they share the cache with identify sessions. *)
let run_learn ~cache ~config ~labels (job : job) =
  let s = job.subject in
  let model, r =
    Pipeline.learn ~exec:config ~cache ~labels ~subject:s.Subject.name
      ~seed:job.seed ~algorithm:job.algorithm ~inputs:s.Subject.inputs
      ~factory:s.Subject.factory ~eq:(s.Subject.eq ~seed:job.seed) ()
  in
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
  let outcome = Identified (Identify.run ~mq:(Engine.membership engine) tree) in
  let stats = Engine.oracle_stats engine in
  let hits, misses = Engine.cache_stats engine in
  ( outcome,
    ( stats.Prognosis_learner.Oracle.membership_queries,
      stats.Prognosis_learner.Oracle.membership_symbols,
      stats.Prognosis_learner.Oracle.test_words,
      hits,
      misses ) )

(* --- the scheduler --- *)

exception Service_error of string

let default_config = { Engine.default with Engine.batch = true }

let run ?(domains = 1) ?(shards = 8) ?(config = default_config) ?library ~jobs
    () =
  let jobs = Array.of_list jobs in
  let n = Array.length jobs in
  (* Resident splitter forest: built (and its entry models packed)
     once on this domain before fan-out — [Mealy.Packed.pack]
     memoizes on the model record and is not safe to race. *)
  let forest =
    if Array.exists (fun j -> j.op = Identify) jobs then
      match library with
      | None -> Error "identify jobs require a model library"
      | Some lib -> (
          List.iter
            (fun (e : Library.entry) ->
              ignore (Mealy.Packed.pack e.Library.model))
            lib.Library.entries;
          match Splitter.of_library lib with
          | Ok forest -> Ok forest
          | Error e -> Error e)
    else Ok []
  in
  match forest with
  | Error e -> Error e
  | Ok forest ->
      (* One shared sharded cache per endpoint configuration: sessions
         probing behaviourally identical endpoints (same subject name —
         SUL answers are seed-invariant) pool their answers; distinct
         configurations must not, they answer differently. *)
      let caches = Hashtbl.create 8 in
      Array.iter
        (fun j ->
          let name = j.subject.Subject.name in
          if not (Hashtbl.mem caches name) then
            Hashtbl.add caches name (Cache.Sharded.create ~shards ()))
        jobs;
      let tree_for (j : job) =
        Option.value ~default:(Splitter.Leaf None)
          (List.assoc_opt j.subject.Subject.kind forest)
      in
      let results = Array.make n None in
      let failures = Array.make n None in
      let next = Atomic.make 0 in
      let run_session i (job : job) =
        let cache =
          Cache.shared (Hashtbl.find caches job.subject.Subject.name)
        in
        let labels = [ ("session", string_of_int i) ] in
        let t0 = Unix.gettimeofday () in
        let outcome, (queries, symbols, test_words, hits, misses) =
          match job.op with
          | Learn -> run_learn ~cache ~config ~labels job
          | Identify ->
              run_identify ~cache ~tree:(tree_for job) ~config ~labels job
        in
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
      let worker () =
        let rec loop () =
          let i = Atomic.fetch_and_add next 1 in
          if i < n then begin
            (match run_session i jobs.(i) with
            | session -> results.(i) <- Some session
            | exception e ->
                failures.(i) <- Some (e, Printexc.get_raw_backtrace ()));
            loop ()
          end
        in
        loop ()
      in
      (* The trace sink is not domain-safe (same reason the engine
         refuses parallel execution while tracing), so a traced run
         degrades to a sequential fleet. *)
      let domains =
        let d = max 1 (min domains (max n 1)) in
        if Trace.enabled () then 1 else d
      in
      let t0 = Unix.gettimeofday () in
      if domains = 1 then worker ()
      else begin
        let spawned =
          Array.init (domains - 1) (fun _ -> Domain.spawn worker)
        in
        worker ();
        Array.iter Domain.join spawned
      end;
      let elapsed_s = Unix.gettimeofday () -. t0 in
      (* Failures surface in job order, so a multi-failure fleet
         reports deterministically whichever job comes first. *)
      Array.iter
        (function
          | Some (e, bt) -> Printexc.raise_with_backtrace e bt
          | None -> ())
        failures;
      let sessions =
        Array.to_list
          (Array.map
             (function
               | Some s -> s
               | None -> raise (Service_error "session produced no result"))
             results)
      in
      let shared =
        (* first-appearance order over distinct endpoints, from the
           job list (Hashtbl order is not deterministic); a cache's
           tallies are the sum of its sessions' views *)
        let seen = Hashtbl.create 8 in
        Array.to_list jobs
        |> List.filter_map (fun j ->
               let name = j.subject.Subject.name in
               if Hashtbl.mem seen name then None
               else begin
                 Hashtbl.add seen name ();
                 let c = Hashtbl.find caches name in
                 let sum f =
                   List.fold_left
                     (fun acc s -> if s.endpoint = name then acc + f s else acc)
                     0 sessions
                 in
                 Some
                   {
                     cache_endpoint = name;
                     shard_count = Cache.Sharded.shards c;
                     hits = sum (fun s -> s.cache_hits);
                     misses = sum (fun s -> s.cache_misses);
                     nodes = Cache.Sharded.size c;
                   }
               end)
      in
      Ok
        {
          sessions;
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
      ("shards", Jsonx.Int c.shard_count);
      ("hits", Jsonx.Int c.hits);
      ("misses", Jsonx.Int c.misses);
      ("nodes", Jsonx.Int c.nodes);
    ]

let to_json t =
  Jsonx.Obj
    [
      ("schema", Jsonx.String schema);
      ("domains", Jsonx.Int t.domains);
      ("jobs", Jsonx.Int (List.length t.sessions));
      ("elapsed_s", Jsonx.Float t.elapsed_s);
      ("sessions_per_sec", Jsonx.Float t.sessions_per_sec);
      ("total_membership_queries", Jsonx.Int (total_membership_queries t));
      ("shared_cache_hits", Jsonx.Int (shared_hits t));
      ("sessions", Jsonx.List (List.map session_json t.sessions));
      ("shared_caches", Jsonx.List (List.map shared_json t.shared));
    ]

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

let pp fmt t =
  Format.fprintf fmt "@[<v>";
  List.iter (fun s -> Format.fprintf fmt "%a@," pp_session s) t.sessions;
  Format.fprintf fmt
    "%d session(s) on %d domain(s) in %.3fs (%.2f sessions/s), %d shared \
     cache hit(s)@]"
    (List.length t.sessions) t.domains t.elapsed_s t.sessions_per_sec
    (shared_hits t)
