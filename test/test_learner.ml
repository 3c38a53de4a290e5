module Mealy = Prognosis_automata.Mealy
module Sul = Prognosis_sul.Sul
module Rng = Prognosis_sul.Rng
module Oracle = Prognosis_learner.Oracle
module Cache = Prognosis_learner.Cache
module Lstar = Prognosis_learner.Lstar
module Ttt = Prognosis_learner.Ttt
module Eq_oracle = Prognosis_learner.Eq_oracle
module Learn = Prognosis_learner.Learn
module Checkpoint = Prognosis_learner.Checkpoint

(* --- fixtures --- *)

let counter3 =
  Mealy.make ~size:3 ~initial:0 ~inputs:[| 'a'; 'b' |]
    ~delta:[| [| 1; 0 |]; [| 2; 0 |]; [| 0; 0 |] |]
    ~lambda:[| [| "0"; "r" |]; [| "1"; "r" |]; [| "2"; "r" |] |]

(* A 5-state machine with a "lock" pattern: the word a·b·a unlocks. *)
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

let mq_for m = Oracle.of_sul (Sul.of_mealy m)
let perfect m : ('a, 'b) Oracle.equivalence = Eq_oracle.against m

let learn_and_check name algorithm target =
  let mq = mq_for target in
  let learned, _rounds =
    match algorithm with
    | `Lstar -> Lstar.learn ~inputs:(Mealy.inputs target) ~mq ~eq:(perfect target) ()
    | `Ttt -> Ttt.learn ~inputs:(Mealy.inputs target) ~mq ~eq:(perfect target) ()
  in
  Alcotest.(check (option (list char)))
    (name ^ ": equivalent") None
    (Mealy.equivalent learned target);
  Alcotest.(check int)
    (name ^ ": minimal")
    (Mealy.size (Mealy.minimize target))
    (Mealy.size learned)

let lstar_counter () = learn_and_check "lstar counter3" `Lstar counter3
let lstar_lock () = learn_and_check "lstar lock" `Lstar lock
let ttt_counter () = learn_and_check "ttt counter3" `Ttt counter3
let ttt_lock () = learn_and_check "ttt lock" `Ttt lock

let single_state () =
  (* Constant machine: 1 state regardless of input. *)
  let m =
    Mealy.make ~size:1 ~initial:0 ~inputs:[| 'a'; 'b' |] ~delta:[| [| 0; 0 |] |]
      ~lambda:[| [| "x"; "y" |] |]
  in
  learn_and_check "lstar single" `Lstar m;
  learn_and_check "ttt single" `Ttt m

(* --- cache --- *)

let cache_prefix_answers () =
  let c = Cache.create () in
  Cache.insert c [ 'a'; 'b'; 'c' ] [ 1; 2; 3 ];
  Alcotest.(check (option (list int))) "full" (Some [ 1; 2; 3 ])
    (Cache.lookup c [ 'a'; 'b'; 'c' ]);
  Alcotest.(check (option (list int))) "prefix" (Some [ 1; 2 ])
    (Cache.lookup c [ 'a'; 'b' ]);
  Alcotest.(check (option (list int))) "empty" (Some []) (Cache.lookup c []);
  Alcotest.(check (option (list int))) "miss" None (Cache.lookup c [ 'a'; 'z' ])

(* A miss extending a cached word replays in full, and the fresh
   prefix outputs must agree with the cached ones — otherwise the SUL
   is nondeterministic and the wrap says so. *)
let wrap_checks_prefix_replay () =
  let asked = ref [] in
  let mq =
    Oracle.of_fun (fun w ->
        asked := w :: !asked;
        List.mapi (fun i _ -> i) w)
  in
  let c = Cache.create () in
  let cached = Cache.wrap c mq in
  Alcotest.(check (list int)) "first" [ 0; 1 ] (cached.Oracle.ask [ 'a'; 'b' ]);
  Alcotest.(check (list int)) "extension" [ 0; 1; 2 ]
    (cached.Oracle.ask [ 'a'; 'b'; 'c' ]);
  Alcotest.(check (list (list char))) "both reached the oracle"
    [ [ 'a'; 'b'; 'c' ]; [ 'a'; 'b' ] ] !asked;
  (* A lying oracle whose fresh replay contradicts the cached prefix is
     caught. *)
  let lying = Oracle.of_fun (fun w -> List.map (fun _ -> 99) w) in
  let c2 = Cache.create () in
  Cache.insert c2 [ 'a' ] [ 1 ];
  let cached2 = Cache.wrap c2 lying in
  Alcotest.check_raises "prefix conflict" (Cache.Conflict 0) (fun () ->
      ignore (cached2.Oracle.ask [ 'a'; 'b' ]))

let cache_detects_conflict () =
  let c = Cache.create () in
  Cache.insert c [ 'a' ] [ 1 ];
  Alcotest.check_raises "conflict" (Cache.Conflict 0) (fun () ->
      Cache.insert c [ 'a'; 'b' ] [ 2; 2 ])

let cache_saves_queries () =
  let mq = mq_for counter3 in
  let c = Cache.create () in
  let cached = Cache.wrap c mq in
  let _ = cached.Oracle.ask [ 'a'; 'a'; 'a' ] in
  let _ = cached.Oracle.ask [ 'a'; 'a' ] in
  let _ = cached.Oracle.ask [ 'a'; 'a'; 'a' ] in
  Alcotest.(check int) "one real query" 1 mq.Oracle.stats.membership_queries;
  Alcotest.(check int) "two hits" 2 (Cache.hits c)

(* The coded cache against a naive reference: an assoc list of the
   inserted (word, outputs) pairs, for a private trie and for a view
   over a shared store. Symbols are drawn from three strings, each
   either the alphabet's own value or a structurally equal copy, so
   coding must fall back from the physical probe. Answers depend on
   the prefix, except where an op flips one output to provoke a
   [Conflict]. *)
let prop_coded_cache =
  let open QCheck2.Gen in
  let sym =
    map2
      (fun s copy -> if copy then Bytes.to_string (Bytes.of_string s) else s)
      (oneofl [ "a"; "b"; "c" ]) bool
  in
  let op = triple bool (list_size (int_bound 5) sym) (opt (int_bound 5)) in
  QCheck2.Test.make ~count:300 ~name:"coded cache == assoc-list reference"
    ~print:QCheck2.Print.(list (triple bool (list string) (option int)))
    (list_size (int_bound 40) op)
    (fun ops ->
      let answer w flip =
        List.mapi (fun k x -> if Some k = flip then "X" else x ^ string_of_int k) w
      in
      let rec prefix p w =
        match (p, w) with
        | [], _ -> true
        | x :: p, y :: w -> x = y && prefix p w
        | _ :: _, [] -> false
      in
      let rec conflicts w o w' o' =
        match (w, o, w', o') with
        | x :: w, a :: o, y :: w', b :: o' when x = y -> a <> b || conflicts w o w' o'
        | _ -> false
      in
      let check c =
        let entries = ref [] and hits = ref 0 and misses = ref 0 in
        let lookup w =
          if w = [] then Some []
          else
            List.find_map
              (fun (w', o') ->
                if prefix w w' then Some (List.filteri (fun i _ -> i < List.length w) o')
                else None)
              !entries
        in
        let steps_ok =
          List.for_all
            (fun (is_insert, w, flip) ->
              if is_insert then begin
                let o = answer w flip in
                let expected = List.exists (fun (w', o') -> conflicts w o w' o') !entries in
                let raised =
                  match Cache.insert c w o with
                  | () -> false
                  | exception Cache.Conflict _ -> true
                in
                if not raised then entries := (w, o) :: !entries;
                raised = expected
              end
              else begin
                let expected = lookup w in
                (* half the probes through the uncounted list lookup,
                   half through the counted coded entry point *)
                let got =
                  if flip = None then Cache.lookup c w
                  else begin
                    if expected = None then incr misses else incr hits;
                    Cache.find_coded c (Oracle.Coder.intern_word (Cache.inputs c) w)
                    |> Option.map (Oracle.Coder.decode (Cache.outputs c))
                  end
                in
                got = expected
              end)
            ops
        in
        let maximal =
          List.filter
            (fun (w, _) ->
              w <> [] && not (List.exists (fun (w', _) -> w <> w' && prefix w w') !entries))
            !entries
        in
        steps_ok
        && Cache.hits c = !hits
        && Cache.misses c = !misses
        && Cache.dump c = List.sort_uniq compare maximal
      in
      check (Cache.create ())
      && check (Cache.shared (Cache.Shared.create ())))

(* The driver over the plain cached oracle. *)
let learn_cached ~eq m =
  let c = Cache.create () in
  Learn.run_mq
    ~cache_stats:(fun () -> (Cache.hits c, Cache.misses c))
    ~inputs:(Mealy.inputs m) ~mq:(Cache.wrap c (mq_for m)) ~eq ()

let cached_learning_equivalent () =
  (* Learning through a cache must give the same model. *)
  let result = learn_cached ~eq:(perfect lock) lock in
  Alcotest.(check (option (list char))) "same model" None
    (Mealy.equivalent result.Learn.model lock)

(* --- oracle stats --- *)

let stats_counted () =
  let mq = mq_for counter3 in
  let _ = mq.Oracle.ask [ 'a'; 'b' ] in
  let _ = mq.Oracle.ask [ 'a' ] in
  Alcotest.(check int) "queries" 2 mq.Oracle.stats.membership_queries;
  Alcotest.(check int) "symbols" 3 mq.Oracle.stats.membership_symbols

(* --- equivalence oracles --- *)

let mutant_of m =
  (* Flip one output in the last state. *)
  let size = Mealy.size m in
  Mealy.of_fun ~size ~initial:(Mealy.initial m) ~inputs:(Mealy.inputs m)
    ~step:(fun s x ->
      let s', o = Mealy.step m s x in
      if s = size - 1 then (s', o ^ "!") else (s', o))

let random_words_find_difference () =
  let rng = Rng.create 7L in
  let mutant = mutant_of lock in
  let mq = mq_for lock in
  let eq = Eq_oracle.random_words ~rng ~max_tests:2000 ~min_len:1 ~max_len:10 in
  match eq mq mutant with
  | None -> Alcotest.fail "random words should find the mutant"
  | Some w ->
      Alcotest.(check bool) "genuine" true (Mealy.run lock w <> Mealy.run mutant w)

let w_method_finds_difference () =
  let mutant = mutant_of lock in
  let mq = mq_for lock in
  match Eq_oracle.w_method ~extra_states:1 () mq mutant with
  | None -> Alcotest.fail "w-method should find the mutant"
  | Some _ -> ()

let random_walk_terminates () =
  let rng = Rng.create 11L in
  let mq = mq_for lock in
  (* Hypothesis equals the SUL: oracle must return None. *)
  Alcotest.(check (option (list char))) "no cex" None
    (Eq_oracle.random_walk ~rng ~max_tests:200 ~stop_prob:0.2 mq lock)

let exhaustive_finds_difference () =
  let mutant = mutant_of counter3 in
  let mq = mq_for counter3 in
  match Eq_oracle.exhaustive ~max_len:5 mq mutant with
  | None -> Alcotest.fail "exhaustive should find the mutant"
  | Some _ -> ()

let combine_order () =
  let mq = mq_for counter3 in
  let never _ _ = None in
  let always _ _ = Some [ 'a' ] in
  Alcotest.(check (option (list char))) "first hit wins" (Some [ 'a' ])
    (Eq_oracle.combine [ never; always ] mq counter3)

let shrink_shortens () =
  let mutant = mutant_of counter3 in
  let mq = mq_for counter3 in
  (* Long counterexample with redundant prefix symbols. *)
  let cex = [ 'b'; 'a'; 'a'; 'a' ] in
  Alcotest.(check bool) "valid input" true
    (Mealy.run counter3 cex <> Mealy.run mutant cex);
  let small = Eq_oracle.shrink mq mutant cex in
  Alcotest.(check bool) "still distinguishes" true
    (Mealy.run counter3 small <> Mealy.run mutant small);
  Alcotest.(check bool) "not longer" true (List.length small <= List.length cex)

(* --- full driver --- *)

let driver_reports_stats () =
  let result = learn_cached ~eq:(perfect lock) lock in
  Alcotest.(check bool) "queries counted" true
    (result.Learn.stats.membership_queries > 0);
  Alcotest.(check bool) "rounds >= 1" true (result.Learn.rounds >= 1)

let driver_random_eq () =
  let rng = Rng.create 99L in
  let eq = Eq_oracle.random_words ~rng ~max_tests:3000 ~min_len:1 ~max_len:12 in
  let result = learn_cached ~eq lock in
  Alcotest.(check (option (list char))) "learned lock" None
    (Mealy.equivalent result.Learn.model lock)

let max_rounds_enforced () =
  (* A useless equivalence oracle that always returns a fresh, valid
     counterexample keeps the loop running; max_rounds must stop it. *)
  let target = lock in
  let mq = mq_for target in
  let eq _mq h = Mealy.equivalent target h in
  (* With a perfect oracle learning converges quickly, so force a tiny
     budget to exercise the failure path on a machine needing >1 round. *)
  match Lstar.learn ~max_rounds:1 ~inputs:(Mealy.inputs target) ~mq ~eq () with
  | exception Failure _ -> ()
  | _model, rounds -> Alcotest.(check bool) "within budget" true (rounds <= 1)

let ttt_refine_rejects_stale () =
  let t = Ttt.create ~inputs:(Mealy.inputs counter3) (mq_for counter3) in
  let _ = Ttt.hypothesis t in
  (* A word on which SUL and hypothesis agree is a stale counterexample. *)
  match Mealy.equivalent (Ttt.hypothesis t) counter3 with
  | None ->
      Alcotest.(check bool) "stale rejected" false (Ttt.refine t [ 'a' ])
  | Some cex ->
      Alcotest.(check bool) "genuine accepted" true (Ttt.refine t cex)

let fixed_words_oracle () =
  let mutant = mutant_of lock in
  let mq = mq_for lock in
  (* The scenario word reaches the mutated last state. *)
  let scenario = [ 'a'; 'b'; 'a'; 'a'; 'a' ] in
  Alcotest.(check bool) "scenario distinguishes" true
    (Mealy.run lock scenario <> Mealy.run mutant scenario);
  (match Eq_oracle.fixed_words [ scenario ] mq mutant with
  | Some w -> Alcotest.(check (list char)) "returns the scenario" scenario w
  | None -> Alcotest.fail "scenario oracle must find the difference");
  Alcotest.(check (option (list char))) "irrelevant scenarios find nothing" None
    (Eq_oracle.fixed_words [ [ 'b' ]; [] ] mq mutant)

let run_mq_driver () =
  let mq = mq_for counter3 in
  let result =
    Learn.run_mq ~inputs:(Mealy.inputs counter3) ~mq ~eq:(perfect counter3) ()
  in
  Alcotest.(check int) "model size" 3 (Mealy.size result.Learn.model);
  Alcotest.(check int) "no cache stats" 0 result.Learn.cache_hits

let lstar_table_dimensions () =
  let t = Lstar.create ~inputs:(Mealy.inputs counter3) (mq_for counter3) in
  let _ = Lstar.hypothesis t in
  Alcotest.(check bool) "rows >= states" true (Lstar.rows t >= 3);
  Alcotest.(check bool) "columns >= alphabet" true (Lstar.columns t >= 2)

(* --- property-based: learners recover random machines --- *)

let gen_mealy =
  QCheck2.Gen.(
    let* size = int_range 1 6 in
    let* delta =
      array_size (return size) (array_size (return 2) (int_range 0 (size - 1)))
    in
    let* lambda = array_size (return size) (array_size (return 2) (int_range 0 2)) in
    return (Mealy.make ~size ~initial:0 ~inputs:[| 'a'; 'b' |] ~delta ~lambda))

let prop_learner name learner =
  QCheck2.Test.make ~count:60 ~name gen_mealy (fun target ->
      let mq = mq_for target in
      let learned, _ = learner ~inputs:(Mealy.inputs target) ~mq ~eq:(perfect target) () in
      Mealy.equivalent learned target = None
      && Mealy.size learned = Mealy.size (Mealy.minimize target))

let prop_lstar =
  prop_learner "l* recovers random machines"
    (Lstar.learn ?max_rounds:None ?on_round:None)

let prop_ttt =
  prop_learner "ttt recovers random machines"
    (Ttt.learn ?max_rounds:None ?on_round:None)

let prop_agreement =
  QCheck2.Test.make ~count:40 ~name:"l* and ttt agree" gen_mealy (fun target ->
      let m1, _ =
        Lstar.learn ~inputs:(Mealy.inputs target) ~mq:(mq_for target)
          ~eq:(perfect target) ()
      in
      let m2, _ =
        Ttt.learn ~inputs:(Mealy.inputs target) ~mq:(mq_for target)
          ~eq:(perfect target) ()
      in
      Mealy.equivalent m1 m2 = None)

(* A scenario word holding a symbol outside the learn's alphabet fails
   with an error naming it, and coding it mints no cache id. *)
let unknown_symbol_rejected () =
  let m =
    Mealy.make ~size:1 ~initial:0 ~inputs:[| "a"; "b" |] ~delta:[| [| 0; 0 |] |]
      ~lambda:[| [| "x"; "y" |] |]
  in
  let engine =
    Prognosis_exec.Engine.create ~factory:(fun _ -> Sul.of_mealy m) ()
  in
  let mq = Prognosis_exec.Engine.membership engine in
  (match Eq_oracle.fixed_words [ [ "a" ]; [ "b"; "zz" ] ] mq m with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument msg ->
      let named =
        let rec at i =
          i + 4 <= String.length msg && (String.sub msg i 4 = "\"zz\"" || at (i + 1))
        in
        at 0
      in
      Alcotest.(check bool) ("names the symbol: " ^ msg) true named);
  Alcotest.(check int) "no id minted" (-1)
    (Oracle.Coder.find mq.Oracle.coded.Oracle.inputs "zz")

(* A snapshot whose payload unmarshals but whose words do not fit
   together is refused as corrupt, the way an unreadable one is. *)
let checkpoint_restore_corrupt () =
  let dir = Filename.temp_dir "prognosis-ck" "" in
  let start resume : (string, string) Checkpoint.session =
    Checkpoint.start ~kind:"t" (Checkpoint.spec ~resume ~dir ())
  in
  let refused words =
    Checkpoint.save ~path:(Checkpoint.file (start false)) ~kind:"t"
      { queries = 1; words; exec = None };
    match start true with
    | _ -> false
    | exception Checkpoint.Unusable (Corrupt _) -> true
  in
  let length_mismatch = refused [ ([ "a"; "b" ], [ "x" ]) ] in
  let disagreeing =
    refused [ ([ "a"; "b" ], [ "x"; "y" ]); ([ "a"; "c" ], [ "z"; "y" ]) ]
  in
  Sys.remove (Filename.concat dir "t.ckpt");
  Sys.rmdir dir;
  Alcotest.(check bool) "length mismatch" true length_mismatch;
  Alcotest.(check bool) "disagreeing words" true disagreeing

let () =
  Alcotest.run "learner"
    [
      ( "lstar",
        [
          Alcotest.test_case "counter3" `Quick lstar_counter;
          Alcotest.test_case "lock" `Quick lstar_lock;
        ] );
      ( "ttt",
        [
          Alcotest.test_case "counter3" `Quick ttt_counter;
          Alcotest.test_case "lock" `Quick ttt_lock;
          Alcotest.test_case "single state" `Quick single_state;
        ] );
      ( "cache",
        [
          Alcotest.test_case "prefix answers" `Quick cache_prefix_answers;
          Alcotest.test_case "prefix replay check" `Quick
            wrap_checks_prefix_replay;
          Alcotest.test_case "conflict detection" `Quick cache_detects_conflict;
          Alcotest.test_case "saves queries" `Quick cache_saves_queries;
          Alcotest.test_case "cached learning" `Quick cached_learning_equivalent;
          QCheck_alcotest.to_alcotest prop_coded_cache;
        ] );
      ("oracle", [ Alcotest.test_case "stats" `Quick stats_counted ]);
      ( "checkpoint",
        [
          Alcotest.test_case "corrupt words" `Quick checkpoint_restore_corrupt;
        ] );
      ( "eq-oracle",
        [
          Alcotest.test_case "random words" `Quick random_words_find_difference;
          Alcotest.test_case "w-method" `Quick w_method_finds_difference;
          Alcotest.test_case "random walk none" `Quick random_walk_terminates;
          Alcotest.test_case "exhaustive" `Quick exhaustive_finds_difference;
          Alcotest.test_case "combine" `Quick combine_order;
          Alcotest.test_case "shrink" `Quick shrink_shortens;
          Alcotest.test_case "unknown symbol" `Quick unknown_symbol_rejected;
        ] );
      ( "driver",
        [
          Alcotest.test_case "stats reported" `Quick driver_reports_stats;
          Alcotest.test_case "random eq oracle" `Quick driver_random_eq;
          Alcotest.test_case "max rounds" `Quick max_rounds_enforced;
          Alcotest.test_case "stale counterexample" `Quick ttt_refine_rejects_stale;
          Alcotest.test_case "fixed words oracle" `Quick fixed_words_oracle;
          Alcotest.test_case "run_mq" `Quick run_mq_driver;
          Alcotest.test_case "l* table dimensions" `Quick lstar_table_dimensions;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_lstar; prop_ttt; prop_agreement ] );
    ]
