module Mealy = Prognosis_automata.Mealy
module Dfa = Prognosis_automata.Dfa
module Testing = Prognosis_automata.Testing

(* A tiny two-state toggle machine: input 'a' flips state and reports
   the state it left; input 'b' stays put. *)
let toggle =
  Mealy.make ~size:2 ~initial:0 ~inputs:[| 'a'; 'b' |]
    ~delta:[| [| 1; 0 |]; [| 0; 1 |] |]
    ~lambda:[| [| "s0"; "stay" |]; [| "s1"; "stay" |] |]

(* Three-state counter modulo 3 on 'a'; 'b' resets to 0. *)
let counter3 =
  Mealy.make ~size:3 ~initial:0 ~inputs:[| 'a'; 'b' |]
    ~delta:[| [| 1; 0 |]; [| 2; 0 |]; [| 0; 0 |] |]
    ~lambda:[| [| "0"; "r" |]; [| "1"; "r" |]; [| "2"; "r" |] |]

(* counter3 with a redundant duplicated state (state 3 behaves like 1). *)
let counter3_redundant =
  Mealy.make ~size:4 ~initial:0 ~inputs:[| 'a'; 'b' |]
    ~delta:[| [| 3; 0 |]; [| 2; 0 |]; [| 0; 0 |]; [| 2; 0 |] |]
    ~lambda:[| [| "0"; "r" |]; [| "1"; "r" |]; [| "2"; "r" |]; [| "1"; "r" |] |]

let run_outputs () =
  Alcotest.(check (list string))
    "toggle run" [ "s0"; "s1"; "stay"; "s0" ]
    (Mealy.run toggle [ 'a'; 'a'; 'b'; 'a' ])

let run_empty () =
  Alcotest.(check (list string)) "empty word" [] (Mealy.run toggle [])

let state_after () =
  Alcotest.(check int) "after aa" 2 (Mealy.state_after counter3 [ 'a'; 'a' ]);
  Alcotest.(check int) "after aab" 0 (Mealy.state_after counter3 [ 'a'; 'a'; 'b' ])

let make_validates () =
  Alcotest.check_raises "bad successor" (Invalid_argument "Mealy.make: successor out of range")
    (fun () ->
      ignore
        (Mealy.make ~size:1 ~initial:0 ~inputs:[| 'a' |] ~delta:[| [| 5 |] |]
           ~lambda:[| [| "x" |] |]));
  Alcotest.check_raises "bad initial" (Invalid_argument "Mealy.make: bad initial state")
    (fun () ->
      ignore
        (Mealy.make ~size:1 ~initial:3 ~inputs:[| 'a' |] ~delta:[| [| 0 |] |]
           ~lambda:[| [| "x" |] |]));
  (* A structurally equal copy repeats a symbol just like the same value. *)
  Alcotest.check_raises "repeated input" (Invalid_argument "Mealy.make: input 2 repeats input 0")
    (fun () ->
      ignore
        (Mealy.make ~size:1 ~initial:0
           ~inputs:[| "a"; "b"; Bytes.to_string (Bytes.of_string "a") |]
           ~delta:[| [| 0; 0; 0 |] |] ~lambda:[| [| "x"; "y"; "z" |] |]))

let minimize_removes_redundancy () =
  let m = Mealy.minimize counter3_redundant in
  Alcotest.(check int) "minimal size" 3 (Mealy.size m);
  Alcotest.(check (option (list char)))
    "behaviour preserved" None
    (Mealy.equivalent m counter3)

let minimize_idempotent () =
  let m = Mealy.minimize counter3 in
  Alcotest.(check int) "already minimal" 3 (Mealy.size m)

(* counter3 with states relabelled by the permutation 0->2, 1->0,
   2->1 (initial becomes 2): same behaviour, different numbering. *)
let counter3_permuted =
  Mealy.make ~size:3 ~initial:2 ~inputs:[| 'a'; 'b' |]
    ~delta:[| [| 1; 2 |]; [| 2; 2 |]; [| 0; 2 |] |]
    ~lambda:[| [| "1"; "r" |]; [| "2"; "r" |]; [| "0"; "r" |] |]

let structurally_equal a b =
  Mealy.size a = Mealy.size b
  && Mealy.initial a = Mealy.initial b
  && Mealy.inputs a = Mealy.inputs b
  &&
  let same = ref true in
  for s = 0 to Mealy.size a - 1 do
    for i = 0 to Mealy.alphabet_size a - 1 do
      if Mealy.step_idx a s i <> Mealy.step_idx b s i then same := false
    done
  done;
  !same

let canonicalize_permutation_invariant () =
  let c = Mealy.canonicalize counter3_permuted in
  Alcotest.(check int) "initial renumbered to 0" 0 (Mealy.initial c);
  Alcotest.(check (option (list char)))
    "behaviour preserved" None
    (Mealy.equivalent c counter3_permuted);
  Alcotest.(check bool)
    "same normal form as the unpermuted machine" true
    (structurally_equal c (Mealy.canonicalize counter3))

let canonicalize_idempotent () =
  let c = Mealy.canonicalize counter3_permuted in
  Alcotest.(check bool) "fixed point" true (structurally_equal c (Mealy.canonicalize c))

let canonicalize_drops_unreachable () =
  let m =
    Mealy.make ~size:3 ~initial:0 ~inputs:[| 'a' |]
      ~delta:[| [| 1 |]; [| 0 |]; [| 2 |] |]
      ~lambda:[| [| "x" |]; [| "y" |]; [| "z" |] |]
  in
  Alcotest.(check int) "unreachable dropped" 2 (Mealy.size (Mealy.canonicalize m))

let trim_unreachable () =
  (* State 2 unreachable. *)
  let m =
    Mealy.make ~size:3 ~initial:0 ~inputs:[| 'a' |]
      ~delta:[| [| 1 |]; [| 0 |]; [| 2 |] |]
      ~lambda:[| [| "x" |]; [| "y" |]; [| "z" |] |]
  in
  Alcotest.(check int) "trimmed" 2 (Mealy.size (Mealy.trim m))

let equivalent_detects_difference () =
  match Mealy.equivalent toggle counter3 with
  | None -> Alcotest.fail "expected a counterexample"
  | Some w ->
      Alcotest.(check bool)
        "counterexample is genuine" true
        (Mealy.run toggle w <> Mealy.run counter3 w)

let equivalent_shortest () =
  (* toggle vs counter3 first differ on the very first 'a'. *)
  match Mealy.equivalent toggle counter3 with
  | Some w -> Alcotest.(check int) "shortest cex" 1 (List.length w)
  | None -> Alcotest.fail "expected a counterexample"

let equivalent_same () =
  Alcotest.(check (option (list char))) "self equivalent" None
    (Mealy.equivalent counter3 counter3)

let equivalent_alphabet_mismatch () =
  let other =
    Mealy.make ~size:1 ~initial:0 ~inputs:[| 'z' |] ~delta:[| [| 0 |] |]
      ~lambda:[| [| "x" |] |]
  in
  Alcotest.check_raises "alphabet mismatch"
    (Invalid_argument "Mealy.equivalent: machines have different alphabets")
    (fun () -> ignore (Mealy.equivalent toggle other))

let access_words_reach () =
  let words = Mealy.access_words counter3 in
  Array.iteri
    (fun s w ->
      Alcotest.(check int) (Printf.sprintf "access to %d" s) s
        (Mealy.state_after counter3 w))
    words

let characterizing_set_separates () =
  let w = Mealy.characterizing_set counter3 in
  for p = 0 to 2 do
    for q = p + 1 to 2 do
      Alcotest.(check bool)
        (Printf.sprintf "separates %d %d" p q)
        true
        (List.exists (fun word -> Mealy.run_from counter3 p word <> Mealy.run_from counter3 q word) w)
    done
  done

let count_words_formula () =
  Alcotest.(check int) "2^1+2^2" 6 (Mealy.count_words ~alphabet:2 ~max_len:2);
  (* The paper's 329,554,456 traces: alphabet 7, length <= 10. *)
  Alcotest.(check int) "paper trace count" 329_554_456
    (Mealy.count_words ~alphabet:7 ~max_len:10)

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec loop i = i + n <= h && (String.sub haystack i n = needle || loop (i + 1)) in
  n = 0 || loop 0

let dot_output () =
  let dot = Mealy.to_dot ~input_pp:Fmt.char ~output_pp:Fmt.string toggle in
  Alcotest.(check bool) "mentions initial" true (contains dot "__start -> s0");
  Alcotest.(check bool) "has edge label" true (contains dot "a / s0")

let map_outputs_works () =
  let m = Mealy.map_outputs String.length toggle in
  Alcotest.(check (list int)) "mapped" [ 2; 2 ] (Mealy.run m [ 'a'; 'a' ])

(* --- DFA monitors --- *)

(* Safety monitor: symbol 1 must never appear after symbol 2. *)
let monitor =
  Dfa.make ~size:3 ~initial:0
    ~delta:(fun s x ->
      match (s, x) with
      | 0, 2 -> 1
      | 1, 1 -> 2
      | 2, _ -> 2
      | s, _ -> s)
    ~accepting:(fun s -> s <> 2)

let dfa_accepts () =
  Alcotest.(check bool) "ok word" true (Dfa.accepts monitor [ 1; 1; 2; 3 ]);
  Alcotest.(check bool) "bad word" false (Dfa.accepts monitor [ 2; 1 ])

let dfa_first_violation () =
  Alcotest.(check (option int)) "position" (Some 3)
    (Dfa.first_violation monitor [ 1; 2; 3; 1 ]);
  Alcotest.(check (option int)) "no violation" None
    (Dfa.first_violation monitor [ 1; 2; 3 ])

let dfa_complement () =
  let c = Dfa.complement monitor in
  Alcotest.(check bool) "flipped" true (Dfa.accepts c [ 2; 1 ] = false)

let dfa_product () =
  (* Second monitor: never read 9. *)
  let no_nine =
    Dfa.make ~size:2 ~initial:0
      ~delta:(fun s x -> if x = 9 then 1 else s)
      ~accepting:(fun s -> s = 0)
  in
  let both = Dfa.product monitor no_nine in
  Alcotest.(check bool) "ok" true (Dfa.accepts both [ 1; 2 ]);
  Alcotest.(check bool) "violates left" false (Dfa.accepts both [ 2; 1 ]);
  Alcotest.(check bool) "violates right" false (Dfa.accepts both [ 9 ])

(* --- test-suite generation --- *)

let transition_cover_size () =
  let cover = Testing.transition_cover counter3 in
  Alcotest.(check int) "3 states x 2 inputs" 6 (List.length cover)

let state_cover_reaches_all () =
  let cover = Testing.state_cover counter3 in
  Alcotest.(check int) "3 words" 3 (List.length cover);
  let states = List.sort_uniq compare (List.map (Mealy.state_after counter3) cover) in
  Alcotest.(check (list int)) "all states" [ 0; 1; 2 ] states

let middle_words_counts () =
  Alcotest.(check int) "len<=0" 1 (List.length (Testing.middle_words [| 'a'; 'b' |] 0));
  Alcotest.(check int) "len<=2" 7 (List.length (Testing.middle_words [| 'a'; 'b' |] 2))

let w_method_catches_mutant () =
  (* Mutate one output of counter3 and check the suite detects it. *)
  let mutant =
    Mealy.make ~size:3 ~initial:0 ~inputs:[| 'a'; 'b' |]
      ~delta:[| [| 1; 0 |]; [| 2; 0 |]; [| 0; 0 |] |]
      ~lambda:[| [| "0"; "r" |]; [| "1"; "r" |]; [| "2"; "X" |] |]
  in
  let suite = Testing.w_method counter3 in
  Alcotest.(check bool) "suite kills mutant" true
    (List.exists (fun w -> Mealy.run counter3 w <> Mealy.run mutant w) suite)

let wp_method_kills_mutant () =
  let mutant =
    Mealy.make ~size:3 ~initial:0 ~inputs:[| 'a'; 'b' |]
      ~delta:[| [| 1; 0 |]; [| 2; 0 |]; [| 0; 0 |] |]
      ~lambda:[| [| "0"; "r" |]; [| "1"; "r" |]; [| "2"; "X" |] |]
  in
  let suite = Testing.wp_method ~extra_states:1 counter3 in
  Alcotest.(check bool) "suite kills mutant" true
    (List.exists (fun w -> Mealy.run counter3 w <> Mealy.run mutant w) suite);
  Alcotest.(check int) "no duplicates" (List.length suite)
    (List.length (List.sort_uniq compare suite))

let suite_counts () =
  let suite = [ [ 'a' ]; [ 'a'; 'b' ] ] in
  Alcotest.(check int) "size" 2 (Testing.suite_size suite);
  Alcotest.(check int) "symbols" 3 (Testing.suite_symbols suite)

(* --- property-based --- *)

let gen_mealy =
  (* Random machines over a 2-symbol alphabet with <= 5 states and
     outputs in 0..2. *)
  QCheck2.Gen.(
    let* size = int_range 1 5 in
    let* delta =
      array_size (return size) (array_size (return 2) (int_range 0 (size - 1)))
    in
    let* lambda = array_size (return size) (array_size (return 2) (int_range 0 2)) in
    return (Mealy.make ~size ~initial:0 ~inputs:[| 'a'; 'b' |] ~delta ~lambda))

let gen_word = QCheck2.Gen.(list_size (int_range 0 12) (oneofl [ 'a'; 'b' ]))

let prop_minimize_preserves =
  QCheck2.Test.make ~count:200 ~name:"minimize preserves behaviour"
    QCheck2.Gen.(pair gen_mealy gen_word)
    (fun (m, w) -> Mealy.run m w = Mealy.run (Mealy.minimize m) w)

let prop_minimize_minimal =
  QCheck2.Test.make ~count:100 ~name:"minimized machines have pairwise-distinct states"
    gen_mealy
    (fun m ->
      let m = Mealy.minimize m in
      let ok = ref true in
      for p = 0 to Mealy.size m - 1 do
        for q = p + 1 to Mealy.size m - 1 do
          if Mealy.distinguishing_word m p q = None then ok := false
        done
      done;
      !ok)

let prop_canonicalize_preserves =
  QCheck2.Test.make ~count:200 ~name:"canonicalize preserves behaviour"
    QCheck2.Gen.(pair gen_mealy gen_word)
    (fun (m, w) -> Mealy.run m w = Mealy.run (Mealy.canonicalize m) w)

let prop_equivalent_reflexive =
  QCheck2.Test.make ~count:100 ~name:"equivalence is reflexive" gen_mealy
    (fun m -> Mealy.equivalent m m = None)

let prop_equivalent_cex_valid =
  QCheck2.Test.make ~count:200 ~name:"equivalence counterexamples are genuine"
    QCheck2.Gen.(pair gen_mealy gen_mealy)
    (fun (a, b) ->
      match Mealy.equivalent a b with
      | None -> true
      | Some w -> Mealy.run a w <> Mealy.run b w)

let prop_w_method_sound =
  QCheck2.Test.make ~count:100 ~name:"w-method suite words run without error"
    gen_mealy
    (fun m ->
      let suite = Testing.w_method m in
      List.for_all (fun w -> List.length (Mealy.run m w) = List.length w) suite)

let () =
  Alcotest.run "automata"
    [
      ( "mealy",
        [
          Alcotest.test_case "run outputs" `Quick run_outputs;
          Alcotest.test_case "run empty" `Quick run_empty;
          Alcotest.test_case "state_after" `Quick state_after;
          Alcotest.test_case "make validates" `Quick make_validates;
          Alcotest.test_case "minimize removes redundancy" `Quick minimize_removes_redundancy;
          Alcotest.test_case "minimize idempotent" `Quick minimize_idempotent;
          Alcotest.test_case "trim unreachable" `Quick trim_unreachable;
          Alcotest.test_case "canonicalize permutation-invariant" `Quick
            canonicalize_permutation_invariant;
          Alcotest.test_case "canonicalize idempotent" `Quick canonicalize_idempotent;
          Alcotest.test_case "canonicalize drops unreachable" `Quick
            canonicalize_drops_unreachable;
          Alcotest.test_case "equivalent detects difference" `Quick equivalent_detects_difference;
          Alcotest.test_case "equivalent shortest" `Quick equivalent_shortest;
          Alcotest.test_case "equivalent same" `Quick equivalent_same;
          Alcotest.test_case "alphabet mismatch" `Quick equivalent_alphabet_mismatch;
          Alcotest.test_case "access words reach" `Quick access_words_reach;
          Alcotest.test_case "characterizing set separates" `Quick characterizing_set_separates;
          Alcotest.test_case "count_words" `Quick count_words_formula;
          Alcotest.test_case "dot output" `Quick dot_output;
          Alcotest.test_case "map_outputs" `Quick map_outputs_works;
        ] );
      ( "dfa",
        [
          Alcotest.test_case "accepts" `Quick dfa_accepts;
          Alcotest.test_case "first violation" `Quick dfa_first_violation;
          Alcotest.test_case "complement" `Quick dfa_complement;
          Alcotest.test_case "product" `Quick dfa_product;
        ] );
      ( "testing",
        [
          Alcotest.test_case "transition cover size" `Quick transition_cover_size;
          Alcotest.test_case "state cover reaches all" `Quick state_cover_reaches_all;
          Alcotest.test_case "middle words counts" `Quick middle_words_counts;
          Alcotest.test_case "w-method kills mutant" `Quick w_method_catches_mutant;
          Alcotest.test_case "wp kills mutant" `Quick wp_method_kills_mutant;
          Alcotest.test_case "suite counts" `Quick suite_counts;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_minimize_preserves;
            prop_minimize_minimal;
            prop_canonicalize_preserves;
            prop_equivalent_reflexive;
            prop_equivalent_cex_valid;
            prop_w_method_sound;
          ] );
    ]
