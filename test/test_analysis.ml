module Mealy = Prognosis_automata.Mealy
open Prognosis_analysis

let m1 =
  Mealy.make ~size:2 ~initial:0 ~inputs:[| 'a'; 'b' |]
    ~delta:[| [| 1; 0 |]; [| 0; 1 |] |]
    ~lambda:[| [| "x"; "y" |]; [| "z"; "y" |] |]

(* m2 differs from m1 only in state 1 on input 'b'. *)
let m2 =
  Mealy.make ~size:2 ~initial:0 ~inputs:[| 'a'; 'b' |]
    ~delta:[| [| 1; 0 |]; [| 0; 1 |] |]
    ~lambda:[| [| "x"; "y" |]; [| "z"; "DIFF" |] |]

(* --- model diff --- *)

let diff_equivalent () =
  Alcotest.(check bool) "same" true (Model_diff.equivalent m1 m1);
  Alcotest.(check bool) "different" false (Model_diff.equivalent m1 m2)

let diff_first_difference () =
  match Model_diff.first_difference m1 m2 with
  | None -> Alcotest.fail "expected difference"
  | Some w ->
      Alcotest.(check (list char)) "shortest word" [ 'a'; 'b' ] w.Model_diff.word;
      Alcotest.(check bool) "outputs differ" true
        (w.Model_diff.outputs_a <> w.Model_diff.outputs_b)

let diff_witnesses_genuine () =
  let ws = Model_diff.differences ~max:10 m1 m2 in
  Alcotest.(check bool) "found some" true (List.length ws >= 1);
  List.iter
    (fun w ->
      Alcotest.(check bool) "genuine" true
        (Mealy.run m1 w.Model_diff.word <> Mealy.run m2 w.Model_diff.word))
    ws

let diff_summary () =
  let s = Model_diff.summarize m1 m2 in
  Alcotest.(check bool) "not equivalent" false s.Model_diff.equivalent_;
  Alcotest.(check int) "states" 2 s.Model_diff.states_a;
  let text =
    Fmt.str "%a"
      (Model_diff.pp_summary ~input_pp:Fmt.char ~output_pp:Fmt.string)
      s
  in
  Alcotest.(check bool) "mentions witnesses" true (String.length text > 40)

let diff_summary_equal () =
  let s = Model_diff.summarize m1 m1 in
  Alcotest.(check bool) "equivalent" true s.Model_diff.equivalent_;
  Alcotest.(check int) "no witnesses" 0 (List.length s.Model_diff.witnesses)

(* --- safety properties --- *)

let never_diff = Safety.never "no DIFF output" (fun (_, o) -> o = "DIFF")

let safety_holds () =
  Alcotest.(check (option (list char))) "m1 satisfies" None
    (Safety.check never_diff m1)

let safety_violation () =
  match Safety.check never_diff m2 with
  | None -> Alcotest.fail "m2 must violate"
  | Some word ->
      (* Shortest violation is a then b. *)
      Alcotest.(check (list char)) "witness" [ 'a'; 'b' ] word;
      Alcotest.(check bool) "replayable" true
        (List.exists (fun o -> o = "DIFF") (Mealy.run m2 word))

let safety_after_always () =
  (* After outputting z, never output y again: m1 violates via a a b. *)
  let p =
    Safety.after_always "no y after z"
      ~trigger:(fun (_, o) -> o = "z")
      ~then_:(fun (_, o) -> o <> "y")
  in
  match Safety.check p m1 with
  | None -> Alcotest.fail "expected violation"
  | Some word ->
      let outputs = Mealy.run m1 word in
      Alcotest.(check bool) "z precedes y" true
        (let rec after_z = function
           | "z" :: rest -> List.mem "y" rest
           | _ :: rest -> after_z rest
           | [] -> false
         in
         after_z outputs)

let bounded_response () =
  (* After input 'a', output "z" must occur within 2 steps. *)
  let p =
    Safety.respond_within "z within 2 of a"
      ~trigger:(fun (i, _) -> i = 'a')
      ~response:(fun (_, o) -> o = "z")
      ~within:2
  in
  (* Trace check: trigger then response in time. *)
  Alcotest.(check (option int)) "satisfied" None
    (Safety.check_trace p [ ('a', "x"); ('b', "z"); ('b', "y") ]);
  Alcotest.(check (option int)) "just in time" None
    (Safety.check_trace p [ ('a', "x"); ('b', "y"); ('b', "z") ]);
  (* The monitor rejects when the last chance (step t+2) passes without
     a response, i.e. at index 2, regardless of the late z at index 3. *)
  Alcotest.(check (option int)) "too late" (Some 2)
    (Safety.check_trace p [ ('a', "x"); ('b', "y"); ('b', "y"); ('b', "z") ]);
  Alcotest.(check (option int)) "immediate" None
    (Safety.check_trace p [ ('a', "z"); ('b', "y"); ('b', "y"); ('b', "y") ])

let bounded_response_on_model () =
  (* m1 toggles; output "z" only on 'a' from state 1. The property
     "after any 'b', a z-output within 1 step" is violated by b·b. *)
  let p =
    Safety.respond_within "z within 1 of b"
      ~trigger:(fun (i, _) -> i = 'b')
      ~response:(fun (_, o) -> o = "z")
      ~within:1
  in
  match Safety.check p m1 with
  | None -> Alcotest.fail "expected violation"
  | Some word -> Alcotest.(check int) "short witness" 2 (List.length word)

let bounded_response_rejects_bad_bound () =
  Alcotest.check_raises "bound" (Invalid_argument "Safety.respond_within: bound must be >= 1")
    (fun () ->
      ignore
        (Safety.respond_within "x" ~trigger:(fun _ -> true)
           ~response:(fun _ -> true) ~within:0))

let safety_conj () =
  let p1 = Safety.never "p1" (fun (_, o) -> o = "DIFF") in
  let p2 = Safety.never "p2" (fun (i, _) -> i = 'q') in
  let both = Safety.conj "both" [ p1; p2 ] in
  Alcotest.(check (option (list char))) "m1 fine" None (Safety.check both m1);
  Alcotest.(check bool) "m2 caught" true (Safety.check both m2 <> None)

let safety_check_trace () =
  let p = Safety.never "no 9" (fun (_, o) -> o = 9) in
  Alcotest.(check (option int)) "ok trace" None
    (Safety.check_trace p [ ('a', 1); ('b', 2) ]);
  Alcotest.(check (option int)) "bad trace" (Some 1)
    (Safety.check_trace p [ ('a', 1); ('b', 9) ])

let numeric_verdicts () =
  Alcotest.(check bool) "increases by 1" true
    (Safety.increases_by ~stride:1 [ 1; 2; 3 ] = Safety.Holds);
  (match Safety.increases_by ~stride:1 [ 1; 3 ] with
  | Safety.Violated { index = 1; _ } -> ()
  | _ -> Alcotest.fail "expected violation at 1");
  Alcotest.(check bool) "strictly increasing" true
    (Safety.strictly_increasing [ 0; 5; 9 ] = Safety.Holds);
  (match Safety.strictly_increasing [ 0; 5; 5 ] with
  | Safety.Violated _ -> ()
  | Safety.Holds -> Alcotest.fail "expected violation");
  Alcotest.(check bool) "bounded" true
    (Safety.bounded_by ~limit:10 [ 1; 10 ] = Safety.Holds);
  match Safety.bounded_by ~limit:10 [ 1; 11 ] with
  | Safety.Violated { index = 1; _ } -> ()
  | _ -> Alcotest.fail "expected bound violation"

(* --- visualisation --- *)

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec loop i = i + n <= h && (String.sub haystack i n = needle || loop (i + 1)) in
  n = 0 || loop 0

let diff_dot_highlights () =
  let dot = Visualize.diff_dot ~input_pp:Fmt.char ~output_pp:Fmt.string m1 m2 in
  Alcotest.(check bool) "has red edge" true (contains dot "color=red");
  Alcotest.(check bool) "shows both outputs" true (contains dot "A:y | B:DIFF")

let diff_dot_clean_when_equal () =
  let dot = Visualize.diff_dot ~input_pp:Fmt.char ~output_pp:Fmt.string m1 m1 in
  Alcotest.(check bool) "no red edge" false (contains dot "color=red")

let write_file_works () =
  let path = Filename.temp_file "prognosis" ".dot" in
  Visualize.write_file ~path "digraph g {}";
  let ic = open_in path in
  let line = input_line ic in
  close_in ic;
  Sys.remove path;
  Alcotest.(check string) "written" "digraph g {}" line

(* --- differential testing (paper §7) --- *)

let diff_test_suite_finds_difference () =
  let suite = [ [ 'a' ]; [ 'a'; 'b' ]; [ 'b'; 'b' ] ] in
  let a = Prognosis_sul.Sul.of_mealy m1 and b = Prognosis_sul.Sul.of_mealy m2 in
  let mismatches = Diff_test.run ~suite a b in
  Alcotest.(check int) "one differing word in the suite" 1 (List.length mismatches);
  match mismatches with
  | [ m ] ->
      Alcotest.(check (list char)) "the a·b word" [ 'a'; 'b' ] m.Diff_test.word
  | _ -> assert false

let diff_test_identical_suls_clean () =
  let suite = [ [ 'a' ]; [ 'a'; 'b'; 'a' ] ] in
  let a = Prognosis_sul.Sul.of_mealy m1 and b = Prognosis_sul.Sul.of_mealy m1 in
  Alcotest.(check int) "no mismatches" 0 (List.length (Diff_test.run ~suite a b))

let diff_test_model_guided () =
  (* The model of m1 drives testing of an m2 "implementation": the
     conformance suite must expose the divergence. *)
  let mismatches =
    Diff_test.model_guided ~model:m1 (Prognosis_sul.Sul.of_mealy m2)
  in
  Alcotest.(check bool) "found deviations" true (mismatches <> []);
  List.iter
    (fun m ->
      Alcotest.(check (list string)) "model prediction is m1's behaviour"
        (Prognosis_automata.Mealy.run m1 m.Diff_test.word)
        m.Diff_test.outputs_a;
      Alcotest.(check bool) "genuine" true
        (m.Diff_test.outputs_a <> m.Diff_test.outputs_b))
    mismatches

let diff_test_max_mismatches () =
  (* Constant machines differing everywhere: the cap binds. *)
  let ca =
    Prognosis_automata.Mealy.make ~size:1 ~initial:0 ~inputs:[| 'a'; 'b' |]
      ~delta:[| [| 0; 0 |] |]
      ~lambda:[| [| "x"; "x" |] |]
  in
  let cb =
    Prognosis_automata.Mealy.make ~size:1 ~initial:0 ~inputs:[| 'a'; 'b' |]
      ~delta:[| [| 0; 0 |] |]
      ~lambda:[| [| "y"; "y" |] |]
  in
  let mismatches =
    Diff_test.model_guided ~max_mismatches:3 ~model:ca
      (Prognosis_sul.Sul.of_mealy cb)
  in
  Alcotest.(check int) "capped" 3 (List.length mismatches)

let diff_test_quic_profiles () =
  (* End-to-end: the learned model of the retry-tolerant QUIC server
     drives testing of the strict-retry implementation — the Issue-1
     divergence surfaces without learning the second model. *)
  let module Quic = Prognosis_quic in
  let tolerant, _ =
    Prognosis.(
      Protocol.learn ~seed:5L (Quic_study.protocol Quic.Quic_profile.google_like))
  in
  let strict_sul =
    Quic.Quic_adapter.sul ~profile:Quic.Quic_profile.strict_retry ~seed:6L ()
  in
  let mismatches =
    Diff_test.model_guided ~model:tolerant strict_sul
  in
  Alcotest.(check bool) "issue-1 divergence found" true (mismatches <> [])

(* --- stochastic annotation (paper §8 "environment quantities") --- *)

let contains_ haystack needle = contains haystack needle

let stochastic_deterministic_sul () =
  let sul = Prognosis_sul.Sul.of_mealy m1 in
  let st = Stochastic.estimate ~samples_per_transition:5 ~skeleton:m1 ~sul () in
  Alcotest.(check int) "all transitions sampled" 4
    (List.length (Stochastic.transitions st));
  Alcotest.(check int) "no stochastic edges" 0
    (List.length (Stochastic.stochastic_transitions st));
  Alcotest.(check (float 0.001)) "prob 1" 1.0
    (Stochastic.probability st ~state:0 ~input:'a' "x")

let flaky_mealy_sul rng =
  (* Behaves like m1 except state 1 on 'a' outputs "z" 70% / "Z" 30%. *)
  let state = ref 0 in
  Prognosis_sul.Sul.make
    ~reset:(fun () -> state := 0)
    ~step:(fun x ->
      let s', o = Prognosis_automata.Mealy.step m1 !state x in
      state := s';
      if o = "z" && Prognosis_sul.Rng.bool rng 0.3 then "Z" else o)
    ()

let stochastic_quantifies_flake () =
  let rng = Prognosis_sul.Rng.create 17L in
  let sul = flaky_mealy_sul rng in
  let st = Stochastic.estimate ~samples_per_transition:200 ~skeleton:m1 ~sul () in
  (match Stochastic.stochastic_transitions st with
  | [ ts ] ->
      Alcotest.(check char) "the z transition" 'a' ts.Stochastic.input;
      let p_z = Stochastic.probability st ~state:1 ~input:'a' "z" in
      Alcotest.(check bool)
        (Printf.sprintf "p(z)=%.2f near 0.7" p_z)
        true
        (p_z > 0.62 && p_z < 0.78)
  | other ->
      Alcotest.fail
        (Printf.sprintf "expected exactly one stochastic transition, got %d"
           (List.length other)));
  let dot =
    Stochastic.to_dot ~input_pp:Fmt.char ~output_pp:Fmt.string st
  in
  Alcotest.(check bool) "stochastic edge highlighted" true
    (contains_ dot "color=red")

let stochastic_rejects_zero_samples () =
  Alcotest.check_raises "samples" (Invalid_argument "Stochastic.estimate: need at least one sample")
    (fun () ->
      ignore
        (Stochastic.estimate ~samples_per_transition:0 ~skeleton:m1
           ~sul:(Prognosis_sul.Sul.of_mealy m1) ()))

let stochastic_issue2_end_to_end () =
  (* Learn the mvfst-like skeleton under a majority oracle, then
     quantify: the post-close probe must be ~82% RESET. *)
  let module Quic = Prognosis_quic in
  let sul = Quic.Quic_adapter.sul ~profile:Quic.Quic_profile.mvfst_like ~seed:71L () in
  (* The modal oracle learns the most-likely behaviour even though
     individual runs disagree: answers are prefix-consistent and
     memoized, so the learner sees a deterministic function. 41 runs
     put the per-query misjudgment probability around 1e-5; the bounded
     random equivalence oracle keeps the total query count low enough
     that no misjudgment is expected over the whole run. *)
  let mq =
    Prognosis_learner.Oracle.of_fun
      (Prognosis_sul.Nondet.modal_oracle ~runs:41 sul)
  in
  let rng = Prognosis_sul.Rng.create 5L in
  let result =
    Prognosis_learner.Learn.run_mq ~max_rounds:30 ~inputs:Quic.Quic_alphabet.all
      ~mq
      ~eq:
        (Prognosis_learner.Eq_oracle.random_words ~rng ~max_tests:150 ~min_len:1
           ~max_len:6)
      ()
  in
  let skeleton = result.Prognosis_learner.Learn.model in
  let st = Stochastic.estimate ~samples_per_transition:120 ~skeleton ~sul () in
  let stochastic = Stochastic.stochastic_transitions st in
  Alcotest.(check bool) "found stochastic transitions" true (stochastic <> []);
  (* Every stochastic transition is a post-close probe answered RESET
     with probability near 0.82. *)
  List.iter
    (fun ts ->
      match ts.Stochastic.outcomes with
      | (top, p) :: _ ->
          Alcotest.(check bool) "top outcome is RESET" true
            (top = [ Quic.Quic_alphabet.abstract_reset ]);
          Alcotest.(check bool)
            (Printf.sprintf "p=%.2f near 0.82" p)
            true (p > 0.72 && p < 0.92)
      | [] -> Alcotest.fail "empty outcomes")
    stochastic

let () =
  Alcotest.run "analysis"
    [
      ( "model-diff",
        [
          Alcotest.test_case "equivalence" `Quick diff_equivalent;
          Alcotest.test_case "first difference" `Quick diff_first_difference;
          Alcotest.test_case "witnesses genuine" `Quick diff_witnesses_genuine;
          Alcotest.test_case "summary" `Quick diff_summary;
          Alcotest.test_case "summary equal" `Quick diff_summary_equal;
        ] );
      ( "safety",
        [
          Alcotest.test_case "holds" `Quick safety_holds;
          Alcotest.test_case "violation" `Quick safety_violation;
          Alcotest.test_case "after-always" `Quick safety_after_always;
          Alcotest.test_case "bounded response" `Quick bounded_response;
          Alcotest.test_case "bounded response on model" `Quick bounded_response_on_model;
          Alcotest.test_case "bounded response bad bound" `Quick bounded_response_rejects_bad_bound;
          Alcotest.test_case "conjunction" `Quick safety_conj;
          Alcotest.test_case "trace check" `Quick safety_check_trace;
          Alcotest.test_case "numeric verdicts" `Quick numeric_verdicts;
        ] );
      ( "visualize",
        [
          Alcotest.test_case "diff highlights" `Quick diff_dot_highlights;
          Alcotest.test_case "clean when equal" `Quick diff_dot_clean_when_equal;
          Alcotest.test_case "write file" `Quick write_file_works;
        ] );
      ( "diff-test",
        [
          Alcotest.test_case "suite" `Quick diff_test_suite_finds_difference;
          Alcotest.test_case "identical clean" `Quick diff_test_identical_suls_clean;
          Alcotest.test_case "model guided" `Quick diff_test_model_guided;
          Alcotest.test_case "mismatch cap" `Quick diff_test_max_mismatches;
          Alcotest.test_case "quic profiles" `Slow diff_test_quic_profiles;
        ] );
      ( "stochastic",
        [
          Alcotest.test_case "deterministic sul" `Quick stochastic_deterministic_sul;
          Alcotest.test_case "quantifies flake" `Quick stochastic_quantifies_flake;
          Alcotest.test_case "rejects zero samples" `Quick stochastic_rejects_zero_samples;
          Alcotest.test_case "issue 2 end-to-end" `Slow stochastic_issue2_end_to_end;
        ] );
    ]
