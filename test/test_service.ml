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

(* One learn path: for every concrete subject, [Subject.learn] and a
   solo serve session produce byte-identical canonical text — the
   committed golden where there is one — and, under the service's
   engine config, spend exactly the same queries. A subject that
   cannot be learned (mvfst-like answers nondeterministically) must
   fail the same way on both paths. *)
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
