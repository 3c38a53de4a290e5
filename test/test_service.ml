(* Fleet-scheduler invariants behind the @service alias: session
   results are byte-identical to solo runs of the same jobs and
   invariant under the domain count, results merge in job order, the
   shared cache actually saves queries across a fleet, and the jobs
   file / service report schemas round-trip. The core-count-guarded
   throughput check asserts the >= 2x speedup the scheduler exists
   for, and skips on boxes without enough cores to show it. *)

module Service = Prognosis_service.Service
module Subject = Prognosis_service.Subject
module Library = Prognosis_fingerprint.Library
module Identify = Prognosis_fingerprint.Identify
module Jsonx = Prognosis_obs.Jsonx
module Metrics = Prognosis_obs.Metrics
module Learn = Prognosis_learner.Learn
module Sul = Prognosis_sul.Sul
module Nondet = Prognosis_sul.Nondet
module Cache = Prognosis_learner.Cache

let subject name =
  match Subject.of_name name with
  | Ok s -> s
  | Error e -> Alcotest.failf "subject %s: %s" name e

(* In-memory library of three known endpoints, learned through
   [Subject.learn] (same canonical bytes as `prognosis library add`). *)
let library =
  lazy
    (let entry name =
       let s = subject name in
       let model, _report =
         s.Subject.learn ~seed:1L ~algorithm:Learn.Ttt_tree ~exec:None
       in
       Library.entry_of_model ~name ~kind:s.Subject.kind model
     in
     {
       Library.dir = "(in-memory)";
       entries =
         [ entry "tcp"; entry "tcp:no-challenge"; entry "quic:quiche-like" ];
     })

(* A mixed 8-job fleet: learn + identify, tcp/dtls/quic, with
   deliberate endpoint repeats so sessions share warmed caches. *)
let mixed_jobs () =
  [
    Service.job ~seed:1L Service.Learn (subject "tcp");
    Service.job ~seed:2L Service.Identify (subject "tcp");
    Service.job ~seed:3L Service.Learn (subject "quic:quiche-like");
    Service.job ~seed:4L Service.Identify (subject "tcp:no-challenge");
    Service.job ~seed:5L Service.Identify (subject "quic:quiche-like");
    Service.job ~seed:1L Service.Learn (subject "tcp");
    Service.job ~seed:6L Service.Identify (subject "tcp");
    Service.job ~seed:7L Service.Learn (subject "dtls");
  ]

let run_fleet ?(domains = 1) jobs =
  match
    Service.run ~domains ~library:(Lazy.force library) ~jobs ()
  with
  | Ok t -> t
  | Error e -> Alcotest.failf "Service.run: %s" e

(* The byte-identity currency: what a session concluded, independent
   of how many queries the shared cache absorbed along the way. *)
let outcome_key = function
  | Service.Learned { canonical; _ } -> "learned:" ^ canonical
  | Service.Identified r -> (
      match r.Identify.outcome with
      | Identify.Known e -> "known:" ^ e.Library.name
      | Identify.Novel _ -> "novel")

let fleet_matches_solo () =
  let jobs = mixed_jobs () in
  let fleet = run_fleet jobs in
  List.iteri
    (fun i job ->
      let solo = run_fleet [ job ] in
      let fleet_s = List.nth fleet.Service.sessions i in
      let solo_s = List.hd solo.Service.sessions in
      Alcotest.(check string)
        (Printf.sprintf "job %d result == solo run" i)
        (outcome_key solo_s.Service.outcome)
        (outcome_key fleet_s.Service.outcome))
    jobs

let fleet_domains_invariant () =
  let jobs = mixed_jobs () in
  let one = run_fleet ~domains:1 jobs in
  let four = run_fleet ~domains:4 jobs in
  Alcotest.(check int) "same session count"
    (List.length one.Service.sessions)
    (List.length four.Service.sessions);
  List.iter2
    (fun (a : Service.session) (b : Service.session) ->
      Alcotest.(check int) "same index" a.Service.index b.Service.index;
      Alcotest.(check string) "same endpoint" a.Service.endpoint
        b.Service.endpoint;
      Alcotest.(check string)
        (Printf.sprintf "session %d result invariant under domains"
           a.Service.index)
        (outcome_key a.Service.outcome)
        (outcome_key b.Service.outcome))
    one.Service.sessions four.Service.sessions

let merge_order () =
  let jobs = mixed_jobs () in
  let fleet = run_fleet jobs in
  List.iteri
    (fun i (s : Service.session) ->
      Alcotest.(check int) "index is job position" i s.Service.index;
      let job = List.nth jobs i in
      Alcotest.(check string) "endpoint is the job's subject"
        job.Service.subject.Subject.name s.Service.endpoint)
    fleet.Service.sessions

let shared_cache_saves_queries () =
  let jobs = mixed_jobs () in
  let fleet = run_fleet jobs in
  let cold =
    List.fold_left
      (fun acc job ->
        acc + Service.total_membership_queries (run_fleet [ job ]))
      0 jobs
  in
  let warm = Service.total_membership_queries fleet in
  Alcotest.(check bool) "shared cache was hit" true
    (Service.shared_hits fleet > 0);
  Alcotest.(check bool)
    (Printf.sprintf "fleet asks fewer SUL queries than cold (%d < %d)" warm
       cold)
    true (warm < cold);
  (* One shared cache per distinct endpoint, first-appearance order. *)
  Alcotest.(check (list string))
    "shared caches keyed by endpoint"
    [ "tcp"; "quic:quiche-like"; "tcp:no-challenge"; "dtls" ]
    (List.map (fun c -> c.Service.cache_endpoint) fleet.Service.shared)

(* An injected misbehaving endpoint: tcp under its own name (so its own
   shared cache), whose SUL flips the first output after every second
   reset. *)
let flaky =
  let tcp = subject "tcp" in
  let factory ~seed ~workers i =
    let sul = tcp.Subject.factory ~seed ~workers i in
    let resets = ref 0 and first = ref false in
    Sul.make
      ~reset:(fun () ->
        incr resets;
        first := true;
        sul.Sul.reset ())
      ~step:(fun x ->
        let o = sul.Sul.step x in
        let flip = !first && !resets mod 2 = 0 in
        first := false;
        if flip then "FLIPPED" else o)
      ()
  in
  { tcp with Subject.name = "tcp:flaky"; factory }

let counters (s : Service.session) =
  [
    s.Service.membership_queries;
    s.Service.membership_symbols;
    s.Service.test_words;
    s.Service.cache_hits;
    s.Service.cache_misses;
  ]

(* One flaky endpoint stops its own session with a verdict; every other
   session comes back as in the clean fleet (counters too, at one
   domain), and the witness word replays the disagreement. *)
let verdict_is_the_sessions_own () =
  let clean_jobs = mixed_jobs () in
  let at = 4 in
  let jobs =
    List.filteri (fun i _ -> i < at) clean_jobs
    @ [ Service.job Service.Learn flaky ]
    @ List.filteri (fun i _ -> i >= at) clean_jobs
  in
  let clean = run_fleet clean_jobs in
  List.iter
    (fun domains ->
      let fleet = run_fleet ~domains jobs in
      Alcotest.(check (list int))
        "every other session finished"
        (List.init 8 (fun i -> if i < at then i else i + 1))
        (List.map (fun s -> s.Service.index) fleet.Service.sessions);
      List.iter2
        (fun (a : Service.session) (b : Service.session) ->
          Alcotest.(check string)
            (Printf.sprintf "session %d outcome as clean" b.Service.index)
            (outcome_key a.Service.outcome)
            (outcome_key b.Service.outcome);
          if domains = 1 then
            Alcotest.(check (list int))
              (Printf.sprintf "session %d counters as clean" b.Service.index)
              (counters a) (counters b))
        clean.Service.sessions fleet.Service.sessions;
      match fleet.Service.verdicts with
      | [ v ] ->
          Alcotest.(check int) "verdict of the flaky session" at v.Service.at;
          let w = v.Service.witness in
          let sul = flaky.Subject.factory ~seed:1L ~workers:1 0 in
          let a1 = Sul.query sul w.Nondet.word in
          let a2 = Sul.query sul w.Nondet.word in
          let answers = List.map (fun o -> o.Nondet.answer) w.Nondet.answers in
          Alcotest.(check bool) "two different answers" true (a1 <> a2);
          Alcotest.(check bool) "both among the witness's answers" true
            (List.mem a1 answers && List.mem a2 answers)
      | vs ->
          Alcotest.failf "expected one verdict, got %d" (List.length vs))
    [ 1; 4 ]

(* --- the pick and the resident helpers --- *)

(* [Service.pick] against its definition, over random job lists of up
   to four endpoints and random taken / busy sets. *)
let pick_gen =
  QCheck2.Gen.(
    let* n = int_range 0 12 in
    triple
      (array_size (return n) (int_range 0 3))
      (array_size (return n) bool)
      (array_size (return 4) bool))

let pick_is_first_free =
  QCheck2.Test.make ~count:500
    ~name:"pick: first free-endpoint job, else first untaken"
    ~print:(fun (e, t, b) ->
      let show f a = String.concat "," (Array.to_list (Array.map f a)) in
      Printf.sprintf "endpoint [%s] taken [%s] busy [%s]"
        (show string_of_int e) (show string_of_bool t) (show string_of_bool b))
    pick_gen
    (fun (endpoint, taken, busy) ->
      let untaken =
        List.init (Array.length endpoint) Fun.id
        |> List.filter (fun i -> not taken.(i))
      in
      let expected =
        match List.find_opt (fun i -> not busy.(endpoint.(i))) untaken with
        | None -> List.nth_opt untaken 0
        | free -> free
      in
      Service.pick ~endpoint ~taken ~busy:(Array.get busy) = expected)

(* One domain picks with nothing running: job order, whatever the
   endpoints. *)
let pick_one_domain =
  QCheck2.Test.make ~count:200 ~name:"pick: job order at one domain"
    QCheck2.Gen.(array_size (int_range 0 12) (int_range 0 3))
    (fun endpoint ->
      let taken = Array.make (Array.length endpoint) false in
      let rec order acc =
        match Service.pick ~endpoint ~taken ~busy:(fun _ -> false) with
        | None -> List.rev acc
        | Some i ->
            taken.(i) <- true;
            order (i :: acc)
      in
      order [] = List.init (Array.length endpoint) Fun.id)

let helper_gauge () =
  int_of_float !(Metrics.gauge Metrics.default "service.helper_domains")

(* Runs reuse the resident helpers: twenty runs at two domains give the
   same results and leave the process with one helper (or with the
   helpers an earlier, wider run spawned); a wider run adds only what
   it needs, and later narrower runs spawn none. *)
let helpers_stay_resident () =
  let jobs = mixed_jobs () in
  let first = helper_gauge () in
  let results fleet =
    List.map (fun s -> outcome_key s.Service.outcome) fleet.Service.sessions
  in
  let reference = results (run_fleet ~domains:1 jobs) in
  for run = 1 to 20 do
    let fleet = run_fleet ~domains:2 jobs in
    Alcotest.(check (list string))
      (Printf.sprintf "run %d results" run)
      reference (results fleet);
    Alcotest.(check int)
      (Printf.sprintf "run %d helpers" run)
      (max first 1) (helper_gauge ())
  done;
  let wider = max first 2 in
  ignore (run_fleet ~domains:3 jobs);
  Alcotest.(check int) "a 3-domain run adds what it needs" wider
    (helper_gauge ());
  for _ = 1 to 3 do
    ignore (run_fleet ~domains:2 jobs)
  done;
  Alcotest.(check int) "narrower runs spawn none" wider (helper_gauge ())

(* Two sessions that meet before raising: they run at the same time, so
   one of them raised on the helper. The run re-raises the first in
   job order, and the helper lives on to serve the next run. *)
let helper_survives_a_raise () =
  let arrived = Atomic.make 0 and met = Atomic.make 0 in
  let raising name =
    let tcp = subject "tcp" in
    let factory ~seed:_ ~workers:_ =
      Atomic.incr arrived;
      let deadline = Unix.gettimeofday () +. 10.0 in
      while Atomic.get arrived < 2 && Unix.gettimeofday () < deadline do
        Domain.cpu_relax ()
      done;
      if Atomic.get arrived = 2 then Atomic.incr met;
      failwith name
    in
    Service.job Service.Learn { tcp with Subject.name = name; factory }
  in
  (match run_fleet ~domains:2 [ raising "boom:0"; raising "boom:1" ] with
  | _ -> Alcotest.fail "a raising session must re-raise from Service.run"
  | exception Failure msg ->
      Alcotest.(check string) "first in job order" "boom:0" msg);
  Alcotest.(check int) "both sessions ran together" 2 (Atomic.get met);
  let jobs = mixed_jobs () in
  let fleet = run_fleet ~domains:2 jobs in
  Alcotest.(check int) "the next run completes" (List.length jobs)
    (List.length fleet.Service.sessions)

let jobs_roundtrip () =
  let text =
    {|{"schema": "prognosis.jobs/1", "jobs": [
        {"op": "learn", "subject": "tcp", "seed": 7},
        {"op": "identify", "subject": "quic:quiche-like"},
        {"op": "learn", "subject": "dtls", "seed": "9", "algorithm": "lstar"}]}|}
  in
  match Service.jobs_of_string text with
  | Error e -> Alcotest.failf "parse: %s" e
  | Ok jobs ->
      Alcotest.(check int) "three jobs" 3 (List.length jobs);
      let j0 = List.nth jobs 0 and j1 = List.nth jobs 1 in
      let j2 = List.nth jobs 2 in
      Alcotest.(check bool) "op learn" true (j0.Service.op = Service.Learn);
      Alcotest.(check string) "subject" "tcp" j0.Service.subject.Subject.name;
      Alcotest.(check int64) "int seed" 7L j0.Service.seed;
      Alcotest.(check int64) "default seed" 1L j1.Service.seed;
      Alcotest.(check bool) "default algorithm" true
        (j1.Service.algorithm = Learn.Ttt_tree);
      Alcotest.(check int64) "string seed" 9L j2.Service.seed;
      Alcotest.(check bool) "lstar" true (j2.Service.algorithm = Learn.L_star)

let jobs_rejects_garbage () =
  let bad text =
    match Service.jobs_of_string text with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "accepted %s" text
  in
  bad {|{"schema": "prognosis.jobs/0", "jobs": []}|};
  bad {|{"schema": "prognosis.jobs/1", "jobs": [{"op": "learn"}]}|};
  bad
    {|{"schema": "prognosis.jobs/1", "jobs": [{"op": "frob", "subject": "tcp"}]}|};
  bad
    {|{"schema": "prognosis.jobs/1", "jobs": [{"op": "learn", "subject": "nope"}]}|};
  bad {|not json|}

let identify_requires_library () =
  match
    Service.run ~jobs:[ Service.job Service.Identify (subject "tcp") ] ()
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "identify without a library must be an Error"

let service_json_schema () =
  let fleet = run_fleet (mixed_jobs ()) in
  match Service.to_json fleet with
  | Jsonx.Obj fields ->
      Alcotest.(check bool) "schema field" true
        (List.assoc_opt "schema" fields = Some (Jsonx.String Service.schema));
      Alcotest.(check string) "schema value" "prognosis.service/1"
        Service.schema;
      (match List.assoc_opt "sessions" fields with
      | Some (Jsonx.List sessions) ->
          Alcotest.(check int) "one entry per job" 8 (List.length sessions)
      | _ -> Alcotest.fail "sessions must be a list");
      (match List.assoc_opt "shared_caches" fields with
      | Some (Jsonx.List caches) ->
          Alcotest.(check int) "one cache per endpoint" 4 (List.length caches)
      | _ -> Alcotest.fail "shared_caches must be a list")
  | _ -> Alcotest.fail "service block must be an object"

(* Each endpoint's shared store reports its own size. The sessions of
   a two-domain tcp + quic fleet run side by side; each endpoint's
   [nodes] must equal the size of a store filled by its session alone,
   and the process-wide registry must hold no per-shard size series,
   which both stores would write. *)
let shared_nodes_per_endpoint () =
  let jobs =
    [
      Service.job ~seed:1L Service.Learn (subject "tcp");
      Service.job ~seed:3L Service.Learn (subject "quic:quiche-like");
    ]
  in
  let fleet = run_fleet ~domains:2 jobs in
  let alone (job : Service.job) =
    let s = job.Service.subject and seed = job.Service.seed in
    let store = Cache.Shared.create () in
    match
      Prognosis.Pipeline.learn ~exec:Service.default_config
        ~cache:(Cache.shared store) ~subject:s.Subject.name ~seed
        ~algorithm:job.Service.algorithm ~inputs:s.Subject.inputs
        ~factory:s.Subject.factory ~eq:(s.Subject.eq ~seed) ()
    with
    | Ok _ -> Cache.Shared.size store
    | Error _ -> Alcotest.failf "%s: nondeterminism verdict" s.Subject.name
  in
  Alcotest.(check int) "one shared cache per endpoint" 2
    (List.length fleet.Service.shared);
  List.iter2
    (fun (job : Service.job) (c : Service.shared_cache) ->
      let name = job.Service.subject.Subject.name in
      Alcotest.(check string) "endpoint order" name c.Service.cache_endpoint;
      Alcotest.(check int)
        (name ^ ": nodes == its own store's size")
        (alone job) c.Service.nodes)
    jobs fleet.Service.shared;
  (match fleet.Service.shared with
  | [ a; b ] ->
      Alcotest.(check bool) "the two stores differ in size" true
        (a.Service.nodes <> b.Service.nodes)
  | _ -> ());
  List.iter
    (fun (series, _) ->
      if String.starts_with ~prefix:"cache.shard.nodes" series then
        Alcotest.failf "per-shard gauge %s in the registry" series)
    (Metrics.snapshot Metrics.default)

(* One learn path: for every concrete subject, [Subject.learn] and a
   solo serve session produce byte-identical canonical text — the
   committed golden where there is one — and, under the service's
   engine config, spend exactly the same queries. A subject that
   cannot be learned (mvfst-like answers nondeterministically) must
   fail the same way on both paths: a nondeterminism verdict. *)
let concrete_subjects =
  List.concat_map
    (fun name ->
      if name = "quic:<profile>" then
        List.map
          (fun p -> "quic:" ^ p.Prognosis_quic.Quic_profile.name)
          Prognosis_quic.Quic_profile.all
      else [ name ])
    Subject.names

(* `dune runtest` runs from _build/default/test, `dune exec` from the
   project root. *)
let golden name =
  let file =
    String.map (fun c -> if c = ':' then '-' else c) name ^ ".model"
  in
  List.find_map
    (fun dir ->
      let path = Filename.concat dir file in
      if Sys.file_exists path then
        Some (In_channel.with_open_bin path In_channel.input_all)
      else None)
    [ "../examples/golden"; "examples/golden" ]

let canonical (s : Subject.t) model =
  Prognosis.Persist.text_of_model ~kind:s.Subject.kind ~input_to_string:Fun.id
    ~output_to_string:Fun.id model

let attempt f = try Ok (f ()) with e -> Error (Printexc.to_string e)

let learn_serve_golden () =
  List.iter
    (fun name ->
      let s = subject name in
      let learned =
        attempt (fun () ->
            canonical s
              (fst
                 (s.Subject.learn ~seed:1L ~algorithm:Learn.Ttt_tree
                    ~exec:None)))
      in
      let served =
        attempt (fun () ->
            match
              Service.run ~jobs:[ Service.job ~seed:1L Service.Learn s ] ()
            with
            | Ok { Service.sessions = [ session ]; _ } -> session
            | Ok { Service.verdicts = [ v ]; _ } ->
                raise (Nondet.Nondeterministic v.Service.witness)
            | Ok _ -> Alcotest.failf "%s: expected one session" name
            | Error e -> Alcotest.failf "%s: %s" name e)
      in
      let served_text =
        Result.map
          (fun (session : Service.session) ->
            match session.Service.outcome with
            | Service.Learned { canonical; _ } -> canonical
            | Service.Identified _ -> Alcotest.failf "%s: not learned" name)
          served
      in
      Alcotest.(check (result string string))
        (name ^ ": learn == serve") learned served_text;
      Option.iter
        (fun text ->
          Alcotest.(check (result string string))
            (name ^ ": learn == golden") (Ok text) learned)
        (golden name);
      match served with
      | Error _ -> ()
      | Ok session ->
          let _, report =
            s.Subject.learn ~seed:1L ~algorithm:Learn.Ttt_tree
              ~exec:(Some Service.default_config)
          in
          let counts mq sym tw =
            Printf.sprintf "mq %d, sym %d, tw %d" mq sym tw
          in
          Alcotest.(check string)
            (name ^ ": learn counters == serve counters")
            (counts report.Prognosis.Report.membership_queries
               report.Prognosis.Report.membership_symbols
               report.Prognosis.Report.test_words)
            (counts session.Service.membership_queries
               session.Service.membership_symbols session.Service.test_words))
    concrete_subjects

(* The point of the scheduler: >= 2x throughput at 4 domains. Needs
   real cores to show it, so skip (loudly) on smaller boxes — the
   result-identity checks above still run everywhere. *)
let throughput_scales () =
  if Domain.recommended_domain_count () < 4 then
    Printf.printf
      "SKIP throughput: %d recommended domains (< 4); identity checks still \
       cover correctness\n"
      (Domain.recommended_domain_count ())
  else begin
    let jobs =
      List.concat_map
        (fun seed ->
          [
            Service.job ~seed Service.Learn (subject "tcp");
            Service.job ~seed Service.Learn (subject "tcp:no-challenge");
            Service.job ~seed Service.Learn (subject "dtls");
            Service.job ~seed Service.Learn (subject "quic:quiche-like");
          ])
        [ 21L; 22L ]
    in
    let one = run_fleet ~domains:1 jobs in
    let four = run_fleet ~domains:4 jobs in
    Alcotest.(check bool)
      (Printf.sprintf "4 domains >= 2x throughput (%.1f vs %.1f sessions/s)"
         four.Service.sessions_per_sec one.Service.sessions_per_sec)
      true
      (four.Service.sessions_per_sec >= 2.0 *. one.Service.sessions_per_sec)
  end

let () =
  Metrics.reset Metrics.default;
  Alcotest.run "service"
    [
      ( "helpers",
        [
          QCheck_alcotest.to_alcotest pick_is_first_free;
          QCheck_alcotest.to_alcotest pick_one_domain;
          Alcotest.test_case "twenty runs, one helper" `Slow
            helpers_stay_resident;
          Alcotest.test_case "a helper survives a raising session" `Slow
            helper_survives_a_raise;
        ] );
      ( "fleet",
        [
          Alcotest.test_case "fleet == solo, per job" `Slow fleet_matches_solo;
          Alcotest.test_case "results invariant under domains" `Slow
            fleet_domains_invariant;
          Alcotest.test_case "merged in job order" `Quick merge_order;
          Alcotest.test_case "shared cache saves queries" `Slow
            shared_cache_saves_queries;
          Alcotest.test_case "throughput scales with domains" `Slow
            throughput_scales;
          Alcotest.test_case "learn == serve == golden" `Slow
            learn_serve_golden;
          Alcotest.test_case "a verdict is the session's own" `Slow
            verdict_is_the_sessions_own;
          Alcotest.test_case "each endpoint reports its own nodes" `Slow
            shared_nodes_per_endpoint;
        ] );
      ( "schema",
        [
          Alcotest.test_case "jobs file round-trip" `Quick jobs_roundtrip;
          Alcotest.test_case "jobs file rejects garbage" `Quick
            jobs_rejects_garbage;
          Alcotest.test_case "identify requires a library" `Quick
            identify_requires_library;
          Alcotest.test_case "service block schema" `Quick service_json_schema;
        ] );
    ]
