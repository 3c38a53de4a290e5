(* Tests for the query-execution engine (lib/exec): batch planning,
   pooled execution with prefix resume, replica voting / quarantine,
   and observational equivalence against a direct sequential oracle. *)

module Mealy = Prognosis_automata.Mealy
module Sul = Prognosis_sul.Sul
module Rng = Prognosis_sul.Rng
module Nondet = Prognosis_sul.Nondet
module Oracle = Prognosis_learner.Oracle
module Cache = Prognosis_learner.Cache
module Eq_oracle = Prognosis_learner.Eq_oracle
module Learn = Prognosis_learner.Learn
module Plan = Prognosis_exec.Plan
module Engine = Prognosis_exec.Engine
module Jsonx = Prognosis_obs.Jsonx
open Prognosis

(* --- fixtures --- *)

let counter3 =
  Mealy.make ~size:3 ~initial:0 ~inputs:[| 'a'; 'b' |]
    ~delta:[| [| 1; 0 |]; [| 2; 0 |]; [| 0; 0 |] |]
    ~lambda:[| [| "0"; "r" |]; [| "1"; "r" |]; [| "2"; "r" |] |]

let lock =
  Mealy.make ~size:5 ~initial:0 ~inputs:[| 'a'; 'b' |]
    ~delta:[| [| 1; 0 |]; [| 1; 2 |]; [| 3; 0 |]; [| 4; 4 |]; [| 4; 4 |] |]
    ~lambda:
      [|
        [| "step"; "no" |];
        [| "step"; "step" |];
        [| "open"; "no" |];
        [| "in"; "in" |];
        [| "in"; "in" |];
      |]

let random_word rng inputs max_len =
  let len = Rng.int rng (max_len + 1) in
  List.init len (fun _ -> inputs.(Rng.int rng (Array.length inputs)))

(* --- planner --- *)

let plan_dedup_and_subsume () =
  let p =
    Plan.build [ [ 'a'; 'b' ]; [ 'a' ]; [ 'a'; 'b' ]; [ 'c' ] ]
  in
  Alcotest.(check (list (list char))) "maximal runs"
    [ [ 'a'; 'b' ]; [ 'c' ] ] p.Plan.runs;
  Alcotest.(check int) "words" 4 p.Plan.words;
  Alcotest.(check int) "dupes" 1 p.Plan.dupes;
  Alcotest.(check int) "subsumed" 1 p.Plan.subsumed

let plan_orders_for_sharing () =
  let p = Plan.build [ [ 'b' ]; [ 'a'; 'a' ]; [ 'a' ]; [ 'a'; 'b' ] ] in
  (* Lexicographic order keeps words sharing a prefix adjacent and
     drops [a] (prefix of its successor). *)
  Alcotest.(check (list (list char))) "sorted maximal"
    [ [ 'a'; 'a' ]; [ 'a'; 'b' ]; [ 'b' ] ] p.Plan.runs

let plan_empty () =
  let p = Plan.build [] in
  Alcotest.(check (list (list char))) "no runs" [] p.Plan.runs;
  Alcotest.(check int) "no words" 0 p.Plan.words

let plan_all_duplicates () =
  let p = Plan.build [ [ 'x' ]; [ 'x' ]; [ 'x' ] ] in
  Alcotest.(check (list (list char))) "one run" [ [ 'x' ] ] p.Plan.runs;
  Alcotest.(check int) "dupes" 2 p.Plan.dupes

(* Batches with forced duplicates and prefixes: random words over a
   small alphabet, then copies of some of them cut to a random length
   (the full length is a duplicate), shuffled together. *)
let gen_batch alphabet =
  QCheck2.Gen.(
    let* base =
      list_size (int_range 1 20) (list_size (int_bound 6) (oneofl alphabet))
    in
    let* cuts =
      list_size (int_bound 12) (pair (int_bound 1000) (int_bound 7))
    in
    let base_a = Array.of_list base in
    let extra =
      List.map
        (fun (i, k) ->
          let w = base_a.(i mod Array.length base_a) in
          List.filteri (fun j _ -> j < k) w)
        cuts
    in
    shuffle_l (base @ extra))

let prop_plan_covers =
  QCheck2.Test.make ~count:300 ~name:"plan runs cover every word"
    ~print:QCheck2.Print.(list (list char))
    (gen_batch [ 'a'; 'b'; 'c' ])
    (fun words ->
      let p = Plan.build words in
      let runs = Array.of_list p.Plan.runs in
      let rec strictly_sorted = function
        | a :: (b :: _ as rest) -> compare a b < 0 && strictly_sorted rest
        | _ -> true
      in
      (* Runs are distinct, so [a = b] only when they are the same run. *)
      let antichain =
        Array.for_all
          (fun a ->
            Array.for_all (fun b -> a = b || not (Plan.is_prefix a b)) runs)
          runs
      in
      strictly_sorted p.Plan.runs && antichain
      && Array.length p.Plan.cover = List.length words
      && List.for_all2
           (fun w r -> Plan.is_prefix w runs.(r))
           words (Array.to_list p.Plan.cover)
      && p.Plan.dupes
         = List.length words - List.length (List.sort_uniq compare words)
      && p.Plan.words = p.Plan.dupes + p.Plan.subsumed + Array.length runs)

(* --- pooled execution --- *)

let engine_for ?(config = Engine.default) m =
  Engine.create ~config ~factory:(fun _ -> Sul.of_mealy m) ()

(* A batch (asked as two halves, so the second meets cache hits)
   answers like a fresh reference SUL, leaves the cache a fresh engine
   asked the same words one at a time would, and accounts every word
   as one hit or one miss, the misses being the queries that reached
   the pool. *)
let prop_engine_batch (name, config) =
  QCheck2.Test.make ~count:100 ~name:("batch = one at a time, " ^ name)
    ~print:QCheck2.Print.(list (list char))
    (gen_batch [ 'a'; 'b' ])
    (fun words ->
      let engine () =
        let cache = Cache.create () in
        let factory _ = Sul.of_mealy counter3 in
        (Engine.create ~config ~cache ~factory (), cache)
      in
      let e, cache = engine () in
      let batch = Option.get (Engine.membership e).Oracle.ask_batch in
      let half = List.length words / 2 in
      let first = batch (List.filteri (fun i _ -> i < half) words) in
      let second = batch (List.filteri (fun i _ -> i >= half) words) in
      let one_by_one, cache1 = engine () in
      let mq1 = Engine.membership one_by_one in
      List.iter (fun w -> ignore (mq1.Oracle.ask w)) words;
      let reference = Sul.of_mealy counter3 in
      let hits, misses = Engine.cache_stats e in
      List.for_all2
        (fun w a -> Sul.query reference w = a)
        words (first @ second)
      && Cache.dump cache = Cache.dump cache1
      && hits + misses = List.length words
      && (Engine.oracle_stats e).Oracle.membership_queries = misses)

let engine_batch_props =
  List.map prop_engine_batch
    [
      ("sequential", { Engine.default with Engine.workers = 1 });
      ("pooled", { Engine.default with Engine.workers = 4 });
      ("replicated", { Engine.default with Engine.workers = 3; replicas = 2 });
    ]

let resume_skips_reset () =
  let e = engine_for counter3 in
  let mq = Engine.membership e in
  Alcotest.(check (list string)) "first" [ "0" ] (mq.Oracle.ask [ 'a' ]);
  Alcotest.(check (list string)) "extension" [ "0"; "1" ]
    (mq.Oracle.ask [ 'a'; 'a' ]);
  let s = Engine.stats e in
  Alcotest.(check int) "one resumed run" 1 s.Engine.resumed;
  (* The second run skipped its reset and replayed only the suffix. *)
  Alcotest.(check int) "one reset" 1 s.Engine.resets;
  Alcotest.(check int) "two steps" 2 s.Engine.steps

let baseline_counts_cache_hits () =
  let e = engine_for counter3 in
  let mq = Engine.membership e in
  ignore (mq.Oracle.ask [ 'a'; 'b' ]);
  ignore (mq.Oracle.ask [ 'a' ]);
  (* cache hit: no run *)
  let s = Engine.stats e in
  Alcotest.(check int) "baseline resets" 2 s.Engine.baseline_resets;
  Alcotest.(check int) "baseline steps" 3 s.Engine.baseline_steps;
  Alcotest.(check int) "actual resets" 1 s.Engine.resets;
  Alcotest.(check int) "saved a reset" 1 (Engine.saved_resets e);
  Alcotest.(check int) "saved a step" 1 (Engine.saved_steps e)

(* Pooled, batched execution answers exactly like a direct sequential
   oracle over one SUL instance — on single asks and on batches, for
   one worker and for four — and every worker takes a share. *)
let observational_equivalence () =
  let reference = Sul.of_mealy lock in
  List.iter
    (fun workers ->
      let config = { Engine.default with Engine.workers } in
      let e = engine_for ~config lock in
      let mq = Engine.membership e in
      let rng = Rng.create 11L in
      for _ = 1 to 500 do
        let w = random_word rng (Mealy.inputs lock) 8 in
        Alcotest.(check (list string))
          (Printf.sprintf "ask, %d workers" workers)
          (Sul.query reference w) (mq.Oracle.ask w)
      done;
      let batch = Option.get mq.Oracle.ask_batch in
      for _ = 1 to 10 do
        let words =
          List.init 50 (fun _ -> random_word rng (Mealy.inputs lock) 8)
        in
        List.iter2
          (fun w a ->
            Alcotest.(check (list string))
              (Printf.sprintf "batch, %d workers" workers)
              (Sul.query reference w) a)
          words (batch words)
      done;
      Alcotest.(check bool)
        (Printf.sprintf "all %d workers ran" workers)
        true
        (Array.for_all (fun r -> r > 0) (Engine.worker_runs e)))
    [ 1; 4 ]

(* Pooled learning produces the same minimal model as direct learning,
   for both algorithms. *)
let pooled_learning_equivalent () =
  List.iter
    (fun algorithm ->
      let config = { Engine.default with Engine.workers = 4 } in
      let e = engine_for ~config lock in
      let rng = Rng.create 5L in
      let eq =
        Eq_oracle.combine
          [
            Eq_oracle.w_method ~extra_states:1 ();
            Eq_oracle.random_words ~rng ~max_tests:200 ~min_len:1 ~max_len:8;
          ]
      in
      let r =
        Learn.run_mq ~algorithm ~inputs:(Mealy.inputs lock)
          ~cache_stats:(fun () -> Engine.cache_stats e)
          ~mq:(Engine.membership e) ~eq ()
      in
      Alcotest.(check (option (list char))) "equivalent" None
        (Mealy.equivalent r.Learn.model lock);
      Alcotest.(check int) "minimal"
        (Mealy.size (Mealy.minimize lock))
        (Mealy.size r.Learn.model))
    [ Learn.L_star; Learn.Ttt_tree ]

(* --- robustness: replicas, voting, quarantine --- *)

(* A worker that always answers "LIE" is outvoted by the three honest
   workers, struck, and quarantined — and learning still converges to
   the correct model. *)
let adversarial_worker_quarantined () =
  let liar () =
    let honest = Sul.of_mealy lock in
    Sul.make ~description:"liar" ~reset:honest.Sul.reset
      ~step:(fun x ->
        ignore (honest.Sul.step x);
        "LIE")
      ()
  in
  let config =
    { Engine.default with Engine.workers = 4; replicas = 2; max_strikes = 2 }
  in
  let e =
    Engine.create ~config
      ~factory:(fun i -> if i = 2 then liar () else Sul.of_mealy lock)
      ()
  in
  let rng = Rng.create 17L in
  let eq =
    Eq_oracle.combine
      [
        Eq_oracle.w_method ~extra_states:1 ();
        Eq_oracle.random_words ~rng ~max_tests:200 ~min_len:1 ~max_len:8;
      ]
  in
  let r =
    Learn.run_mq ~inputs:(Mealy.inputs lock)
      ~cache_stats:(fun () -> Engine.cache_stats e)
      ~mq:(Engine.membership e) ~eq ()
  in
  Alcotest.(check (option (list char))) "correct model despite liar" None
    (Mealy.equivalent r.Learn.model lock);
  let s = Engine.stats e in
  Alcotest.(check bool) "saw disagreements" true (s.Engine.disagreements > 0);
  Alcotest.(check bool) "quarantined the liar" true (s.Engine.quarantines >= 1)

(* Two workers that answer differently can produce no majority: the
   pool as a whole is nondeterministic and says so. *)
let no_majority_raises () =
  let config = { Engine.default with Engine.workers = 2; replicas = 2 } in
  let e =
    Engine.create ~config
      ~factory:(fun i ->
        Sul.make ~reset:(fun () -> ()) ~step:(fun _ -> string_of_int i) ())
      ()
  in
  let mq = Engine.membership e in
  match mq.Oracle.ask [ 'a' ] with
  | _ -> Alcotest.fail "expected Nondeterministic_sul"
  | exception Nondet.Nondeterministic_sul _ -> ()

(* Replicated answers that agree do not disturb the result. *)
let replicas_agreeing () =
  let config = { Engine.default with Engine.workers = 3; replicas = 2 } in
  let e = engine_for ~config counter3 in
  let mq = Engine.membership e in
  Alcotest.(check (list string)) "answer" [ "0"; "1"; "2" ]
    (mq.Oracle.ask [ 'a'; 'a'; 'a' ]);
  let s = Engine.stats e in
  Alcotest.(check int) "extra replica run" 1 s.Engine.vote_runs;
  Alcotest.(check int) "no disagreement" 0 s.Engine.disagreements

let invalid_configs () =
  let factory _ = Sul.of_mealy counter3 in
  Alcotest.check_raises "workers >= 1"
    (Invalid_argument "Engine.create: workers must be >= 1") (fun () ->
      ignore
        (Engine.create ~config:{ Engine.default with Engine.workers = 0 }
           ~factory ()));
  Alcotest.check_raises "replicas <= workers"
    (Invalid_argument "Engine.create: replicas cannot exceed workers")
    (fun () ->
      ignore
        (Engine.create
           ~config:{ Engine.default with Engine.workers = 2; replicas = 3 }
           ~factory ()))

(* --- checkpointable pool state --- *)

let freeze_thaw_roundtrip () =
  let config = { Engine.default with Engine.workers = 3 } in
  let e = engine_for ~config counter3 in
  let mq = Engine.membership e in
  ignore (mq.Oracle.ask [ 'a' ]);
  ignore (mq.Oracle.ask [ 'b' ]);
  ignore (mq.Oracle.ask [ 'a'; 'a' ]);
  let blob = Engine.freeze e in
  let e' = engine_for ~config counter3 in
  Engine.thaw e' blob;
  Alcotest.(check (array int))
    "worker runs restored" (Engine.worker_runs e) (Engine.worker_runs e');
  Alcotest.(check (list int))
    "quarantines restored" (Engine.quarantined e) (Engine.quarantined e')

let thaw_guards () =
  let e = engine_for ~config:{ Engine.default with Engine.workers = 3 } counter3 in
  let blob = Engine.freeze e in
  let smaller =
    engine_for ~config:{ Engine.default with Engine.workers = 2 } counter3
  in
  Alcotest.check_raises "pool size guard"
    (Invalid_argument
       "Engine.thaw: pool size changed (checkpointed 3 workers, pool has 2)")
    (fun () -> Engine.thaw smaller blob);
  Alcotest.check_raises "foreign blob"
    (Invalid_argument "Engine.thaw: unreadable state blob") (fun () ->
      Engine.thaw smaller "gibberish")

let external_cache_short_circuits () =
  (* A pre-warmed cache (a checkpoint session's) answers without
     touching the pool — the mechanism behind crash-free resume. *)
  let cache = Prognosis_learner.Cache.create () in
  Prognosis_learner.Cache.insert cache [ 'a'; 'a' ] [ "0"; "1" ];
  let e =
    Engine.create ~cache ~factory:(fun _ -> Sul.of_mealy counter3) ()
  in
  let mq = Engine.membership e in
  Alcotest.(check (list string)) "cached answer" [ "0"; "1" ]
    (mq.Oracle.ask [ 'a'; 'a' ]);
  Alcotest.(check int) "no pool run" 0 (Engine.stats e).Engine.runs;
  Alcotest.(check (list string)) "uncached answer" [ "0"; "r" ]
    (mq.Oracle.ask [ 'a'; 'b' ]);
  Alcotest.(check int) "one pool run" 1 (Engine.stats e).Engine.runs

(* --- end-to-end: the TCP study through the pool --- *)

let exec_field e k =
  match Jsonx.member k e with
  | Some v -> Option.value ~default:0 (Jsonx.to_int_opt v)
  | None -> Alcotest.failf "exec stats missing %S" k

(* The acceptance bar of the exec subsystem: pooled + batched learning
   of the TCP model matches the sequential oracle's model exactly and
   cuts resets+steps by at least 25%% against the no-reuse sequential
   oracle (every query executed directly, one reset per query). *)
let tcp_study_savings () =
  let tcp = Tcp_study.protocol () in
  let direct, _ = Protocol.learn tcp in
  let pooled, pooled_report =
    Protocol.learn
      ~exec:{ Engine.default with Engine.workers = 4; batch = true }
      tcp
  in
  (match Mealy.equivalent direct pooled with
  | None -> ()
  | Some w ->
      Alcotest.failf "models differ on a %d-symbol word" (List.length w));
  let e =
    match pooled_report.Report.exec with
    | Some e -> e
    | None -> Alcotest.fail "pooled report has no exec section"
  in
  let actual = exec_field e "resets" + exec_field e "steps" in
  let baseline =
    exec_field e "baseline_resets" + exec_field e "baseline_steps"
  in
  Alcotest.(check bool)
    (Printf.sprintf "saved >= 25%% (actual %d vs baseline %d)" actual baseline)
    true
    (4 * actual <= 3 * baseline)

let quic_study_pooled () =
  let profile = Prognosis_quic.Quic_profile.quiche_like in
  let quic = Quic_study.protocol profile in
  let direct, _ = Protocol.learn quic in
  let pooled, pooled_report =
    Protocol.learn
      ~exec:{ Engine.default with Engine.workers = 4; batch = true }
      quic
  in
  (match Mealy.equivalent direct pooled with
  | None -> ()
  | Some w ->
      Alcotest.failf "models differ on a %d-symbol word" (List.length w));
  let e = Option.get pooled_report.Report.exec in
  let actual = exec_field e "resets" + exec_field e "steps" in
  let baseline =
    exec_field e "baseline_resets" + exec_field e "baseline_steps"
  in
  Alcotest.(check bool)
    (Printf.sprintf "saved >= 25%% (actual %d vs baseline %d)" actual baseline)
    true
    (4 * actual <= 3 * baseline)

let () =
  Alcotest.run "exec"
    [
      ( "plan",
        [
          Alcotest.test_case "dedup and subsume" `Quick plan_dedup_and_subsume;
          Alcotest.test_case "prefix-sharing order" `Quick
            plan_orders_for_sharing;
          Alcotest.test_case "empty batch" `Quick plan_empty;
          Alcotest.test_case "all duplicates" `Quick plan_all_duplicates;
          QCheck_alcotest.to_alcotest prop_plan_covers;
        ] );
      ( "pool",
        [
          Alcotest.test_case "resume skips reset" `Quick resume_skips_reset;
          Alcotest.test_case "baseline counts hits" `Quick
            baseline_counts_cache_hits;
          Alcotest.test_case "observational equivalence" `Quick
            observational_equivalence;
          Alcotest.test_case "pooled learning" `Quick pooled_learning_equivalent;
          Alcotest.test_case "invalid configs" `Quick invalid_configs;
        ]
        @ List.map QCheck_alcotest.to_alcotest engine_batch_props );
      ( "robustness",
        [
          Alcotest.test_case "adversarial worker" `Quick
            adversarial_worker_quarantined;
          Alcotest.test_case "no majority" `Quick no_majority_raises;
          Alcotest.test_case "agreeing replicas" `Quick replicas_agreeing;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "freeze/thaw roundtrip" `Quick freeze_thaw_roundtrip;
          Alcotest.test_case "thaw guards" `Quick thaw_guards;
          Alcotest.test_case "external cache" `Quick external_cache_short_circuits;
        ] );
      ( "studies",
        [
          Alcotest.test_case "tcp savings >= 25%" `Slow tcp_study_savings;
          Alcotest.test_case "quic pooled" `Slow quic_study_pooled;
        ] );
    ]
