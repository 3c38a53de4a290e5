(* Tests for the open-world fingerprinting service (lib/fingerprint):
   the model library, the adaptive classification trees, the identify
   engine's Known/Novel verdicts, and the satellite guarantees they
   lean on — shortest deterministic distinguishing words, line-numbered
   parse errors, idempotent canonicalization. *)

module Mealy = Prognosis_automata.Mealy
module Sul = Prognosis_sul.Sul
module Oracle = Prognosis_learner.Oracle
module Model_diff = Prognosis_analysis.Model_diff
module Library = Prognosis_fingerprint.Library
module Splitter = Prognosis_fingerprint.Splitter
module Identify = Prognosis_fingerprint.Identify
open Prognosis

(* --- fixtures: small string-typed machines over {x, y} --- *)

let make ~lambda delta =
  Mealy.make ~size:(Array.length delta) ~initial:0 ~inputs:[| "x"; "y" |]
    ~delta ~lambda

(* x walks 0 -> 1 -> 2 -> 3 (absorbing); y loops home. *)
let chain_delta = [| [| 1; 0 |]; [| 2; 0 |]; [| 3; 0 |]; [| 3; 3 |] |]

let m_base =
  make chain_delta
    ~lambda:[| [| "a"; "n" |]; [| "a"; "n" |]; [| "a"; "n" |]; [| "b"; "n" |] |]

(* differs from m_base only on y in the depth-3 state *)
let m_deep =
  make chain_delta
    ~lambda:[| [| "a"; "n" |]; [| "a"; "n" |]; [| "a"; "n" |]; [| "b"; "m" |] |]

(* differs from m_base immediately, on y in the initial state *)
let m_shallow =
  make chain_delta
    ~lambda:[| [| "a"; "q" |]; [| "a"; "n" |]; [| "a"; "n" |]; [| "b"; "n" |] |]

let mq_of model = Oracle.of_sul (Sul.of_mealy model)

let outcome_name = function
  | Identify.Known e -> "known:" ^ e.Library.name
  | Identify.Novel e -> "novel:" ^ e.Identify.stage

(* --- Model_diff: shortest distinguishing words --- *)

let diff_shortest () =
  (match Model_diff.shortest_difference m_base m_deep with
  | Some w ->
      Alcotest.(check (list string))
        "depth-3 difference needs 4 symbols"
        [ "x"; "x"; "x"; "y" ] w.Model_diff.word;
      Alcotest.(check (list string))
        "outputs_a are m_base's" [ "a"; "a"; "a"; "n" ] w.Model_diff.outputs_a;
      Alcotest.(check (list string))
        "outputs_b are m_deep's" [ "a"; "a"; "a"; "m" ] w.Model_diff.outputs_b
  | None -> Alcotest.fail "expected a difference");
  match Model_diff.shortest_difference m_base m_shallow with
  | Some w ->
      Alcotest.(check (list string))
        "immediate difference is one symbol" [ "y" ] w.Model_diff.word
  | None -> Alcotest.fail "expected a difference"

let diff_deterministic () =
  let w () =
    match Model_diff.shortest_difference m_base m_deep with
    | Some w -> w.Model_diff.word
    | None -> Alcotest.fail "expected a difference"
  in
  Alcotest.(check (list string)) "same word on every run" (w ()) (w ());
  match Model_diff.shortest_difference m_deep m_base with
  | Some rev ->
      Alcotest.(check (list string))
        "argument order does not change the word" (w ()) rev.Model_diff.word
  | None -> Alcotest.fail "expected a difference"

let diff_equivalent () =
  Alcotest.(check bool) "self-diff is empty" true
    (Model_diff.shortest_difference m_base m_base = None);
  Alcotest.(check bool) "equivalent agrees" true
    (Mealy.equivalent m_base m_base = None)

(* --- Persist: line-numbered corruption, kind round-trip --- *)

let persist_line_numbers () =
  let text =
    Persist.text_of_model ~kind:Persist.Tcp_model ~input_to_string:Fun.id
      ~output_to_string:Fun.id m_base
  in
  let lines = String.split_on_char '\n' text in
  let corrupt_at n replacement =
    String.concat "\n"
      (List.mapi (fun i l -> if i = n - 1 then replacement else l) lines)
  in
  let check_detail name n corrupted =
    match Persist.parse_text ~path:"t.model" Persist.Tcp_model corrupted with
    | Error (Persist.Corrupt { detail; _ }) ->
        let prefix = Printf.sprintf "line %d:" n in
        Alcotest.(check bool)
          (name ^ " names " ^ prefix)
          true
          (String.length detail >= String.length prefix
          && String.sub detail 0 (String.length prefix) = prefix)
    | Ok _ -> Alcotest.fail (name ^ ": expected a parse error")
    | Error e -> Alcotest.fail (name ^ ": " ^ Persist.load_error_to_string e)
  in
  check_detail "bad states header" 3 (corrupt_at 3 "states many");
  check_detail "bad transition" 12 (corrupt_at 12 "0 nonsense");
  (* line 6 holds the first input symbol; repeating it on line 7 *)
  let repeated = corrupt_at 7 (List.nth lines 5) in
  check_detail "repeated input" 7 repeated;
  (match Persist.parse_text ~path:"t.model" Persist.Tcp_model repeated with
  | Error (Persist.Corrupt { detail; _ }) ->
      Alcotest.(check string) "repeated input detail"
        (Printf.sprintf "line 7: input symbol %S repeats line 6" (List.nth lines 5))
        detail
  | _ -> Alcotest.fail "repeated input: expected a corrupt model");
  (* truncation points one past the last line *)
  let total = List.length (String.split_on_char '\n' (String.trim text)) in
  match
    Persist.parse_text ~path:"t.model" Persist.Tcp_model
      (String.concat "\n"
         (List.filteri
            (fun i _ -> i < total - 1)
            (String.split_on_char '\n' (String.trim text))))
  with
  | Error (Persist.Corrupt { detail; _ }) ->
      let prefix = Printf.sprintf "line %d:" (total + 1) in
      ignore prefix;
      Alcotest.(check bool) "truncation carries a line number" true
        (String.length detail > 5 && String.sub detail 0 5 = "line ")
  | Ok _ -> Alcotest.fail "expected truncation error"
  | Error e -> Alcotest.fail (Persist.load_error_to_string e)

let kind_round_trip () =
  List.iter
    (fun k ->
      Alcotest.(check bool) "kind_of_string inverts kind_to_string" true
        (Persist.kind_of_string (Persist.kind_to_string k) = Some k))
    Persist.all_kinds;
  Alcotest.(check bool) "unknown kind rejected" true
    (Persist.kind_of_string "smtp" = None)

(* --- Mealy.canonicalize: idempotence (QCheck2) --- *)

let gen_mealy =
  let open QCheck2.Gen in
  let* size = int_range 1 6 in
  let* nin = int_range 1 3 in
  let inputs = Array.init nin (fun i -> Printf.sprintf "i%d" i) in
  let row g = array_size (return nin) g in
  let* delta = array_size (return size) (row (int_range 0 (size - 1))) in
  let* lam = array_size (return size) (row (int_range 0 1)) in
  let lambda = Array.map (Array.map (fun j -> [| "o0"; "o1" |].(j))) lam in
  return (Mealy.make ~size ~initial:0 ~inputs ~delta ~lambda)

let canonicalize_idempotent =
  QCheck2.Test.make ~count:300 ~name:"canonicalize is idempotent" gen_mealy
    (fun m ->
      let c = Mealy.canonicalize m in
      Mealy.canonicalize c = c)

let canonical_form_idempotent =
  QCheck2.Test.make ~count:300
    ~name:"canonicalize o minimize is a fixed point" gen_mealy (fun m ->
      let c = Mealy.canonicalize (Mealy.minimize m) in
      Mealy.canonicalize (Mealy.minimize c) = c)

(* --- Splitter: construction, determinism, insertion --- *)

let entries () =
  List.map
    (fun (name, m) ->
      Library.entry_of_model ~name ~kind:Persist.Tcp_model m)
    [ ("base", m_base); ("deep", m_deep); ("shallow", m_shallow) ]

let build_exn es =
  match Splitter.build es with
  | Ok t -> t
  | Error msg -> Alcotest.fail msg

let splitter_classifies_members () =
  let es = entries () in
  let tree = build_exn es in
  List.iter
    (fun (e : Library.entry) ->
      let r = Identify.run ~mq:(mq_of e.Library.model) tree in
      Alcotest.(check string)
        (e.Library.name ^ " classified as itself")
        ("known:" ^ e.Library.name)
        (outcome_name r.Identify.outcome))
    es;
  let s = Splitter.stats tree in
  Alcotest.(check int) "three leaves" 3 s.Splitter.leaves;
  Alcotest.(check bool) "at least one separating word" true
    (s.Splitter.internal >= 1)

let splitter_deterministic () =
  let t1 = build_exn (entries ()) and t2 = build_exn (entries ()) in
  Alcotest.(check bool) "same entries compile to the same tree" true (t1 = t2)

let splitter_insert () =
  let es = entries () in
  let tree = build_exn es in
  (* an equivalent model is reported as a duplicate, not inserted *)
  (match
     Splitter.insert tree
       (Library.entry_of_model ~name:"base-copy" ~kind:Persist.Tcp_model m_base)
   with
  | Ok (Splitter.Duplicate e) ->
      Alcotest.(check string) "duplicate of base" "base" e.Library.name
  | Ok (Splitter.Inserted _) -> Alcotest.fail "equivalent model inserted"
  | Error msg -> Alcotest.fail msg);
  (* a genuinely new behaviour lands and becomes identifiable *)
  let fresh =
    make chain_delta
      ~lambda:
        [| [| "a"; "n" |]; [| "a"; "z" |]; [| "a"; "n" |]; [| "b"; "n" |] |]
  in
  match
    Splitter.insert tree
      (Library.entry_of_model ~name:"fresh" ~kind:Persist.Tcp_model fresh)
  with
  | Ok (Splitter.Inserted tree') ->
      let r = Identify.run ~mq:(mq_of fresh) tree' in
      Alcotest.(check string) "fresh entry identifiable" "known:fresh"
        (outcome_name r.Identify.outcome);
      List.iter
        (fun (e : Library.entry) ->
          let r = Identify.run ~mq:(mq_of e.Library.model) tree' in
          Alcotest.(check string)
            (e.Library.name ^ " still classified after insert")
            ("known:" ^ e.Library.name)
            (outcome_name r.Identify.outcome))
        es
  | Ok (Splitter.Duplicate _) -> Alcotest.fail "fresh behaviour deduplicated"
  | Error msg -> Alcotest.fail msg

(* --- Splitter: rebalancing a tree degraded by incremental inserts --- *)

let depth_gauge = Prognosis_obs.Metrics.gauge Prognosis_obs.Metrics.default
    "splitter.depth"

(* Unary-counter family: model [n] answers "hit" on the x that leaves
   state [n] and "go" everywhere else. Each next model diverges one
   step deeper than the last, so inserting them in order hangs every
   new leaf off the previous one — the worst case for tree depth. *)
let counter_model n =
  Mealy.of_fun ~size:(n + 2) ~initial:0 ~inputs:[| "x"; "y" |]
    ~step:(fun s i ->
      match i with
      | "x" when s <= n -> (s + 1, if s = n then "hit" else "go")
      | "x" -> (s, "go")
      | _ -> (s, "idle"))

let counter_entry n =
  Library.entry_of_model
    ~name:(Printf.sprintf "c%02d" n)
    ~kind:Persist.Tcp_model (counter_model n)

let insert_all tree es =
  List.fold_left
    (fun tree e ->
      match Splitter.insert tree e with
      | Ok (Splitter.Inserted t) -> t
      | Ok (Splitter.Duplicate d) ->
          Alcotest.failf "%s deduplicated against %s" e.Library.name
            d.Library.name
      | Error msg -> Alcotest.fail msg)
    tree es

let splitter_rebuild_if_skewed () =
  let n = 50 in
  let es = List.init n counter_entry in
  let degraded = insert_all (build_exn [ List.hd es ]) (List.tl es) in
  let d0 = (Splitter.stats degraded).Splitter.depth in
  (* 2 x log2 50 ~ 11.3: a 50-leaf chain is far past the threshold *)
  Alcotest.(check bool) "incremental inserts degraded the tree" true
    (float_of_int d0 > 2.0 *. (log (float_of_int n) /. log 2.0));
  match Splitter.rebuild_if_skewed degraded with
  | Error msg -> Alcotest.fail msg
  | Ok (rebuilt, flagged) ->
      Alcotest.(check bool) "skew detected" true flagged;
      let fresh = build_exn (Splitter.entries degraded) in
      Alcotest.(check int) "depth matches a from-scratch build"
        (Splitter.stats fresh).Splitter.depth
        (Splitter.stats rebuilt).Splitter.depth;
      Alcotest.(check int) "no entry lost" n
        (List.length (Splitter.entries rebuilt));
      Alcotest.(check (float 0.0)) "splitter.depth gauge tracks the rebuild"
        (float_of_int (Splitter.stats rebuilt).Splitter.depth)
        !depth_gauge;
      List.iter
        (fun (e : Library.entry) ->
          let r = Identify.run ~mq:(mq_of e.Library.model) rebuilt in
          Alcotest.(check string)
            (e.Library.name ^ " still classified after rebuild")
            ("known:" ^ e.Library.name)
            (outcome_name r.Identify.outcome))
        [ List.nth es 0; List.nth es 24; List.nth es 49 ]

let splitter_rebuild_leaves_balanced_alone () =
  (* Eight models answering pairwise-distinct outputs on the first x:
     every insert widens the root node instead of deepening it. *)
  let wide n =
    Library.entry_of_model
      ~name:(Printf.sprintf "w%d" n)
      ~kind:Persist.Tcp_model
      (Mealy.of_fun ~size:1 ~initial:0 ~inputs:[| "x"; "y" |]
         ~step:(fun s i ->
           (s, if i = "x" then Printf.sprintf "o%d" n else "idle")))
  in
  let es = List.init 8 wide in
  let tree = insert_all (build_exn [ List.hd es ]) (List.tl es) in
  match Splitter.rebuild_if_skewed tree with
  | Error msg -> Alcotest.fail msg
  | Ok (tree', flagged) ->
      Alcotest.(check bool) "balanced tree not flagged" false flagged;
      Alcotest.(check bool) "returned unchanged" true (tree' = tree);
      Alcotest.(check (float 0.0)) "gauge still set"
        (float_of_int (Splitter.stats tree).Splitter.depth)
        !depth_gauge

(* --- Identify: golden models are Known, a mutant is Novel --- *)

(* `dune runtest` runs from _build/default/test; `dune exec` from the
   project root — resolve the committed goldens from either. *)
let golden_path file =
  let candidates =
    [
      Filename.concat "../examples/golden" file;
      Filename.concat "examples/golden" file;
    ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> List.hd candidates

let goldens =
  [
    ("tcp", Persist.Tcp_model, golden_path "tcp.model");
    ("quic", Persist.Quic_model, golden_path "quic-quiche-like.model");
    ("dtls", Persist.Dtls_model, golden_path "dtls.model");
  ]

let load_golden (name, kind, path) =
  match Persist.load_text ~path kind with
  | Ok m -> Library.entry_of_model ~name ~kind m
  | Error e -> Alcotest.fail (Persist.load_error_to_string e)

let identify_goldens () =
  List.iter
    (fun g ->
      let entry = load_golden g in
      let tree = build_exn [ entry ] in
      let r = Identify.run ~mq:(mq_of entry.Library.model) tree in
      Alcotest.(check string)
        (entry.Library.name ^ " golden is Known")
        ("known:" ^ entry.Library.name)
        (outcome_name r.Identify.outcome);
      Alcotest.(check bool) "confirmation asked at least one word" true
        (r.Identify.confirm_words > 0))
    goldens

let identify_mutant_then_extend () =
  let tcp = load_golden (List.hd goldens) in
  let tree = build_exn [ tcp ] in
  (* a fault-injected variant: one output symbol silenced everywhere *)
  let mutated =
    Mealy.map_outputs
      (fun o -> if o = "ACK(?,?,0)" then "NIL" else o)
      tcp.Library.model
  in
  Alcotest.(check bool) "mutation changed behaviour" false
    (Mealy.equivalent tcp.Library.model mutated = None);
  let r = Identify.run ~mq:(mq_of mutated) tree in
  (match r.Identify.outcome with
  | Identify.Novel e ->
      (* the evidence word replays the divergence on both machines *)
      Alcotest.(check (list string))
        "evidence actual matches the mutant" e.Identify.actual
        (Mealy.run mutated e.Identify.word)
  | Identify.Known _ -> Alcotest.fail "mutant misidentified as known");
  let entry =
    Library.entry_of_model ~name:"tcp-mutant" ~kind:Persist.Tcp_model mutated
  in
  match Splitter.insert tree entry with
  | Ok (Splitter.Inserted tree') ->
      let r2 = Identify.run ~mq:(mq_of mutated) tree' in
      Alcotest.(check string) "mutant Known after extension" "known:tcp-mutant"
        (outcome_name r2.Identify.outcome)
  | Ok (Splitter.Duplicate _) -> Alcotest.fail "mutant deduplicated"
  | Error msg -> Alcotest.fail msg

(* --- Library: on-disk round trip --- *)

let with_dir name f =
  let rec rm path =
    if Sys.is_directory path then (
      Array.iter (fun e -> rm (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path)
    else Sys.remove path
  in
  if Sys.file_exists name then rm name;
  Sys.mkdir name 0o755;
  Fun.protect ~finally:(fun () -> rm name) (fun () -> f name)

let save m name dir =
  Persist.save_text
    ~path:(Filename.concat dir (name ^ ".model"))
    Persist.Tcp_model ~input_to_string:Fun.id ~output_to_string:Fun.id m

let library_round_trip () =
  with_dir "fplib_roundtrip" @@ fun dir ->
  save m_base "base" dir;
  save m_deep "deep" dir;
  save m_base "base-again" dir;
  let lib, notes =
    match Library.build ~check:(fun _ -> Ok ()) ~dir with
    | Ok r -> r
    | Error msg -> Alcotest.fail msg
  in
  Alcotest.(check int) "duplicate dropped" 2 (List.length lib.Library.entries);
  Alcotest.(check int) "duplicate noted" 1 (List.length notes);
  Alcotest.(check bool) "manifest written" true
    (Sys.file_exists (Filename.concat dir Library.manifest_file));
  let reloaded =
    match Library.load ~dir with
    | Ok l -> l
    | Error msg -> Alcotest.fail msg
  in
  Alcotest.(check int) "reload preserves entries" 2
    (List.length reloaded.Library.entries);
  List.iter
    (fun (e : Library.entry) ->
      match Library.find reloaded e.Library.name with
      | Some e' ->
          Alcotest.(check bool)
            (e.Library.name ^ " text identical") true
            (String.equal e.Library.text e'.Library.text)
      | None -> Alcotest.fail ("missing " ^ e.Library.name))
    lib.Library.entries;
  (* extension: a new behaviour is Added, an equivalent one Duplicate *)
  (match Library.add reloaded ~name:"shallow" ~kind:Persist.Tcp_model m_shallow with
  | Ok (Library.Added lib') ->
      Alcotest.(check int) "add extends" 3 (List.length lib'.Library.entries);
      (match Library.add lib' ~name:"shallow-copy" ~kind:Persist.Tcp_model m_shallow with
      | Ok (Library.Duplicate e) ->
          Alcotest.(check string) "equivalent detected" "shallow" e.Library.name
      | _ -> Alcotest.fail "expected Duplicate")
  | _ -> Alcotest.fail "expected Added");
  ()

let library_corrupt_file_pinpointed () =
  with_dir "fplib_corrupt" @@ fun dir ->
  save m_base "base" dir;
  let path = Filename.concat dir "broken.model" in
  let oc = open_out path in
  output_string oc "prognosis.model/1\nkind tcp\nstates nope\n";
  close_out oc;
  match Library.build ~check:(fun _ -> Ok ()) ~dir with
  | Error msg ->
      let contains sub =
        let n = String.length sub and h = String.length msg in
        let rec go i = i + n <= h && (String.sub msg i n = sub || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "error names the file" true (contains "broken.model");
      Alcotest.(check bool) "error names the line" true (contains "line 3")
  | Ok _ -> Alcotest.fail "corrupt model accepted"

let () =
  Alcotest.run "fingerprint"
    [
      ( "model_diff",
        [
          Alcotest.test_case "shortest word" `Quick diff_shortest;
          Alcotest.test_case "deterministic" `Quick diff_deterministic;
          Alcotest.test_case "equivalence" `Quick diff_equivalent;
        ] );
      ( "persist",
        [
          Alcotest.test_case "line-numbered errors" `Quick persist_line_numbers;
          Alcotest.test_case "kind round trip" `Quick kind_round_trip;
        ] );
      ( "canonicalize",
        List.map QCheck_alcotest.to_alcotest
          [ canonicalize_idempotent; canonical_form_idempotent ] );
      ( "splitter",
        [
          Alcotest.test_case "classifies members" `Quick
            splitter_classifies_members;
          Alcotest.test_case "deterministic" `Quick splitter_deterministic;
          Alcotest.test_case "insert" `Quick splitter_insert;
          Alcotest.test_case "rebuild when skewed" `Quick
            splitter_rebuild_if_skewed;
          Alcotest.test_case "balanced left alone" `Quick
            splitter_rebuild_leaves_balanced_alone;
        ] );
      ( "identify",
        [
          Alcotest.test_case "goldens are Known" `Quick identify_goldens;
          Alcotest.test_case "mutant is Novel then extends" `Quick
            identify_mutant_then_extend;
        ] );
      ( "library",
        [
          Alcotest.test_case "round trip" `Quick library_round_trip;
          Alcotest.test_case "corrupt file pinpointed" `Quick
            library_corrupt_file_pinpointed;
        ] );
    ]
