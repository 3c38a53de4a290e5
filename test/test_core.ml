(* End-to-end tests of the study pipelines: the same code paths the
   benchmark harness uses to regenerate the paper's results. *)

module Mealy = Prognosis_automata.Mealy
module Term = Prognosis_synthesis.Term
module Ext_mealy = Prognosis_synthesis.Ext_mealy
open Prognosis

let tcp = Tcp_study.protocol ()

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec loop i = i + n <= h && (String.sub haystack i n = needle || loop (i + 1)) in
  n = 0 || loop 0

(* --- report --- *)

let report_roundtrip () =
  let result = Protocol.learn ~seed:5L tcp in
  let r = (snd result) in
  Alcotest.(check string) "subject" "tcp" r.Report.subject;
  Alcotest.(check int) "alphabet" 7 r.Report.alphabet;
  Alcotest.(check int) "row width" (List.length Report.header)
    (List.length (Report.to_row r));
  Alcotest.(check int) "paper's trace count" 329_554_456
    (Report.trace_count r ~max_len:10);
  Alcotest.(check bool) "pp is nonempty" true
    (String.length (Fmt.str "%a" Report.pp r) > 20)

(* --- TCP study (E1, E8) --- *)

let tcp_learn_shape () =
  let result = Protocol.learn ~seed:5L tcp in
  Alcotest.(check int) "6 states" 6 (snd result).Report.states;
  Alcotest.(check int) "42 transitions" 42 (snd result).Report.transitions

let tcp_learn_lstar_agrees () =
  let ttt = Protocol.learn ~seed:5L tcp in
  let lstar =
    Protocol.learn ~seed:5L ~algorithm:Prognosis_learner.Learn.L_star tcp
  in
  Alcotest.(check bool) "same model" true
    (Prognosis_analysis.Model_diff.equivalent (fst ttt)
       (fst lstar))

let tcp_synthesis_handshake_invariant () =
  let result = Protocol.learn ~seed:5L tcp in
  let words =
    Prognosis_tcp.Tcp_alphabet.
      [ [ Syn; Ack; Ack_psh; Ack_psh ]; [ Syn; Ack_psh; Fin_ack ]; [ Syn; Ack; Fin_ack; Ack ] ]
  in
  match
    Protocol.synthesize Tcp_study.fields
      (Prognosis_tcp.Tcp_adapter.create ~seed:5L ())
      (fst result) words
  with
  | Error e -> Alcotest.fail e
  | Ok machine -> (
      match
        Ext_mealy.output_term machine ~state:(Mealy.initial (fst result))
          ~input:Prognosis_tcp.Tcp_alphabet.Syn ~field:1
      with
      | Some (Term.In_field_inc 0) -> ()
      | Some t -> Alcotest.fail (Fmt.str "ack term %a" Term.pp t)
      | None -> Alcotest.fail "no ack term for SYN")

(* An empty witness word is an empty trace on both synthesis paths. *)
let empty_witness_word () =
  let model = fst (Protocol.learn ~seed:5L tcp) in
  let words = Prognosis_tcp.Tcp_alphabet.[ [ Syn; Ack ] ] in
  let synthesize words =
    Protocol.synthesize Tcp_study.fields
      (Prognosis_tcp.Tcp_adapter.create ~seed:5L ())
      model words
    |> Result.map (fun m -> (m.Ext_mealy.init_regs, m.updates, m.outputs))
  in
  let expected = synthesize words in
  Alcotest.(check bool) "synthesized" true (Result.is_ok expected);
  Alcotest.(check bool) "same machine" true (synthesize ([] :: words) = expected);
  let quic_adapter, _ = Prognosis_quic.Quic_adapter.create ~seed:5L () in
  Alcotest.(check (list (list int))) "no packet numbers" [ [] ]
    (Quic_study.packet_number_sequences quic_adapter [ [] ])

let tcp_dot () =
  let result = Protocol.learn ~seed:5L tcp in
  Alcotest.(check bool) "dot mentions SYN" true
    (contains (Protocol.model_dot tcp (fst result)) "SYN")

(* --- QUIC study (E2, E4-E7) --- *)

let quic_learn_reports () =
  let result = Protocol.learn ~seed:5L (Quic_study.protocol Quic_study.Profile.quiche_like) in
  let r = (snd result) in
  Alcotest.(check string) "subject" "quic:quiche-like" r.Report.subject;
  Alcotest.(check bool) "enough states" true (r.Report.states >= 4);
  Alcotest.(check bool) "queries counted" true (r.Report.membership_queries > 0)

let quic_profiles_differ () =
  let learn ~seed profile =
    fst (Protocol.learn ~seed (Quic_study.protocol profile))
  in
  let s =
    Prognosis_analysis.Model_diff.summarize
      (learn ~seed:5L Quic_study.Profile.google_like)
      (learn ~seed:36L Quic_study.Profile.strict_retry)
  in
  Alcotest.(check bool) "not equivalent" false
    s.Prognosis_analysis.Model_diff.equivalent_;
  Alcotest.(check bool) "tolerant bigger (Issue 1)" true
    (s.Prognosis_analysis.Model_diff.states_a
    > s.Prognosis_analysis.Model_diff.states_b)

let quic_same_profile_equivalent () =
  (* Learning the same profile from different seeds yields equivalent
     models: the abstraction hides all randomness. *)
  let a = Protocol.learn ~seed:5L (Quic_study.protocol Quic_study.Profile.quiche_like) in
  let b = Protocol.learn ~seed:77L (Quic_study.protocol Quic_study.Profile.quiche_like) in
  Alcotest.(check bool) "equivalent" true
    (Prognosis_analysis.Model_diff.equivalent (fst a) (fst b))

let quic_close_reset_rates () =
  let compliant = Quic_study.close_reset_rate ~runs:100 Quic_study.Profile.quiche_like in
  Alcotest.(check (float 0.001)) "compliant rate 1.0" 1.0 compliant;
  let mvfst = Quic_study.close_reset_rate ~runs:300 Quic_study.Profile.mvfst_like in
  Alcotest.(check bool)
    (Printf.sprintf "mvfst rate %.2f near 0.82" mvfst)
    true
    (mvfst > 0.72 && mvfst < 0.92)

(* The doubled Initial_crypto satisfies retry-demanding profiles (the
   second Initial echoes the token) and is a harmless ClientHello
   retransmission for the others. *)
let sdb_words =
  Quic_study.Alphabet.
    [
      [ Initial_crypto; Initial_crypto; Handshake_ack_crypto; Short_ack_stream ];
      [
        Initial_crypto;
        Initial_crypto;
        Handshake_ack_crypto;
        Short_ack_stream;
        Short_ack_flow;
      ];
      [
        Initial_crypto;
        Initial_crypto;
        Handshake_ack_crypto;
        Short_ack_flow;
        Short_ack_stream;
      ];
    ]

let quic_sdb_synthesis_compliant () =
  let result = Protocol.learn ~seed:5L (Quic_study.protocol Quic_study.Profile.quiche_like) in
  let adapter, _ =
    Prognosis_quic.Quic_adapter.create ~profile:Quic_study.Profile.quiche_like ~seed:5L ()
  in
  match Protocol.synthesize Quic_study.fields adapter (fst result) sdb_words with
  | Error e -> Alcotest.fail e
  | Ok machine -> (
      match Quic_study.sdb_verdict machine with
      | `Symbolic -> ()
      | `Constant c -> Alcotest.fail (Printf.sprintf "unexpected constant %d" c)
      | `Unobserved -> Alcotest.fail "sdb never observed")

let quic_sdb_synthesis_google () =
  let result = Protocol.learn ~seed:5L (Quic_study.protocol Quic_study.Profile.google_like) in
  let adapter, _ =
    Prognosis_quic.Quic_adapter.create ~profile:Quic_study.Profile.google_like ~seed:5L ()
  in
  match Protocol.synthesize Quic_study.fields adapter (fst result) sdb_words with
  | Error e -> Alcotest.fail e
  | Ok machine -> (
      match Quic_study.sdb_verdict machine with
      | `Constant 0 -> ()
      | `Constant c -> Alcotest.fail (Printf.sprintf "constant %d, wanted 0" c)
      | `Symbolic -> Alcotest.fail "expected the Issue-4 constant"
      | `Unobserved -> Alcotest.fail "sdb never observed")

let quic_pn_register_synthesized () =
  (* The synthesized extended machine recovers the packet-number
     counter: the pn output field is a register that increments — the
     App. B.1 style of model, for the quantity "packet number". *)
  let result = Protocol.learn ~seed:5L (Quic_study.protocol Quic_study.Profile.quiche_like) in
  let adapter, _ =
    Prognosis_quic.Quic_adapter.create ~profile:Quic_study.Profile.quiche_like ~seed:5L ()
  in
  match Protocol.synthesize Quic_study.fields adapter (fst result) sdb_words with
  | Error e -> Alcotest.fail e
  | Ok machine ->
      (* Field 0 is the packet number: somewhere in the machine there
         must be a register-based pn term and an incrementing update. *)
      let skeleton = machine.Ext_mealy.skeleton in
      let reg_output = ref false and inc_update = ref false in
      for s = 0 to Mealy.size skeleton - 1 do
        for i = 0 to Mealy.alphabet_size skeleton - 1 do
          (match machine.Ext_mealy.outputs.(s).(i).(0) with
          | Some (Term.Reg _ | Term.Reg_inc _) -> reg_output := true
          | Some _ | None -> ());
          match machine.Ext_mealy.updates.(s).(i).(0) with
          | Some (Term.Reg_inc _) -> inc_update := true
          | Some _ | None -> ()
        done
      done;
      Alcotest.(check bool) "pn expressed through a register" true !reg_output;
      Alcotest.(check bool) "register increments" true !inc_update

let quic_packet_numbers_increase () =
  let adapter, _ =
    Prognosis_quic.Quic_adapter.create ~profile:Quic_study.Profile.quiche_like
      ~seed:5L ()
  in
  let seqs = Quic_study.packet_number_sequences adapter sdb_words in
  Alcotest.(check bool) "some sequences" true
    (List.exists (fun s -> List.length s >= 2) seqs);
  List.iter
    (fun seq ->
      Alcotest.(check bool) "increasing" true
        (Prognosis_analysis.Safety.strictly_increasing seq
        = Prognosis_analysis.Safety.Holds))
    seqs

(* --- model persistence --- *)

let persist_roundtrip () =
  let result = Protocol.learn ~seed:5L tcp in
  let path = Filename.temp_file "prognosis" ".model" in
  Persist.save ~path Persist.Tcp_model (fst result);
  (match Protocol.load tcp ~path with
  | Error e -> Alcotest.fail (Persist.load_error_to_string e)
  | Ok model ->
      Alcotest.(check bool) "identical behaviour" true
        (Prognosis_analysis.Model_diff.equivalent model (fst result)));
  Sys.remove path

let persist_kind_guard () =
  let result = Protocol.learn ~seed:5L tcp in
  let path = Filename.temp_file "prognosis" ".model" in
  Persist.save ~path Persist.Tcp_model (fst result);
  (match Protocol.load (Quic_study.protocol Quic_study.Profile.quiche_like) ~path with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "kind mismatch must be refused");
  Sys.remove path

let persist_rejects_garbage () =
  let path = Filename.temp_file "prognosis" ".model" in
  let oc = open_out path in
  output_string oc "not a model at all";
  close_out oc;
  (match Protocol.load tcp ~path with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage must be refused");
  Sys.remove path;
  match Protocol.load tcp ~path:"/nonexistent/nowhere.model" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing file must be an error"

(* Every load failure is a distinct variant a caller can branch on —
   not a pre-formatted string. *)
let persist_error_cases () =
  let path = Filename.temp_file "prognosis" ".model" in
  let write text =
    let oc = open_out_bin path in
    output_string oc text;
    close_out oc
  in
  let expect what = function
    | Error e ->
        Alcotest.fail
          (Printf.sprintf "expected %s, got: %s" what
             (Persist.load_error_to_string e))
    | Ok _ -> Alcotest.fail (Printf.sprintf "expected %s, got a model" what)
  in
  write "something else\nentirely\n1.0\n";
  (match Protocol.load tcp ~path with
  | Error (Persist.Foreign_magic { found = "something else"; _ }) -> ()
  | r -> expect "Foreign_magic" r);
  write "prognosis-model/1\nquic\n0.00.0\n";
  (match Protocol.load tcp ~path with
  | Error (Persist.Kind_mismatch { found = "quic"; expected = "tcp"; _ }) -> ()
  | r -> expect "Kind_mismatch" r);
  write ("prognosis-model/1\ntcp\n0.00.0\n");
  (match Protocol.load tcp ~path with
  | Error (Persist.Version_mismatch { found = "0.00.0"; _ }) -> ()
  | r -> expect "Version_mismatch" r);
  write ("prognosis-model/1\ntcp\n" ^ Sys.ocaml_version ^ "\ngarbage payload");
  (match Protocol.load tcp ~path with
  | Error (Persist.Corrupt _) -> ()
  | r -> expect "Corrupt" r);
  write "prognosis-model/1\n";
  (match Protocol.load tcp ~path with
  | Error (Persist.Corrupt { detail = "truncated header"; _ }) -> ()
  | r -> expect "Corrupt (truncated header)" r);
  Sys.remove path;
  match Protocol.load tcp ~path with
  | Error (Persist.Missing_file _) -> ()
  | r -> expect "Missing_file" r

(* --- the canonical text format --- *)

module Tcp_alpha = Prognosis_tcp.Tcp_alphabet

let tcp_text model =
  Persist.text_of_model ~kind:Persist.Tcp_model
    ~input_to_string:Tcp_alpha.to_string
    ~output_to_string:Tcp_alpha.output_to_string model

let persist_text_roundtrip () =
  let r = Protocol.learn ~seed:5L tcp in
  let text = tcp_text (fst r) in
  match Persist.parse_text ~path:"(mem)" Persist.Tcp_model text with
  | Error e -> Alcotest.fail (Persist.load_error_to_string e)
  | Ok m ->
      Alcotest.(check string)
        "byte-exact round trip" text
        (Persist.text_of_model ~kind:Persist.Tcp_model ~input_to_string:Fun.id
           ~output_to_string:Fun.id m);
      let strm =
        Persist.to_string_model ~input_to_string:Tcp_alpha.to_string
          ~output_to_string:Tcp_alpha.output_to_string (fst r)
      in
      Alcotest.(check bool)
        "parsed model is the learned model" true
        (Prognosis_analysis.Model_diff.equivalent strm m)

let persist_text_canonical_across_runs () =
  (* Two independent runs — different seed, different algorithm — of
     the same implementation serialize byte-identically: the property
     the golden regression gate relies on. *)
  let a = Protocol.learn ~seed:5L tcp in
  let b =
    Protocol.learn ~seed:9L ~algorithm:Prognosis_learner.Learn.L_star tcp
  in
  Alcotest.(check string)
    "canonical bytes" (tcp_text (fst a)) (tcp_text (fst b))

let persist_text_errors () =
  let p = "(mem)" in
  let parse text = Persist.parse_text ~path:p Persist.Tcp_model text in
  (match parse "prognosis.model/2\nkind tcp\n" with
  | Error (Persist.Version_mismatch { found = "prognosis.model/2"; _ }) -> ()
  | _ -> Alcotest.fail "future format version must be a Version_mismatch");
  (match parse "digraph {}\n" with
  | Error (Persist.Foreign_magic _) -> ()
  | _ -> Alcotest.fail "foreign text must be a Foreign_magic");
  (match parse "prognosis.model/1\nkind quic\n" with
  | Error (Persist.Kind_mismatch { found = "quic"; expected = "tcp"; _ }) -> ()
  | _ -> Alcotest.fail "kind mismatch must be refused");
  (match parse "prognosis.model/1\nkind tcp\nstates x\n" with
  | Error (Persist.Corrupt _) -> ()
  | _ -> Alcotest.fail "malformed counts must be Corrupt");
  match Persist.load_text ~path:"/nonexistent/nowhere.model" Persist.Tcp_model with
  | Error (Persist.Missing_file _) -> ()
  | _ -> Alcotest.fail "missing file must be a Missing_file"

(* --- checkpoint / resume --- *)

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

let checkpoint_resume_identical () =
  let module C = Prognosis_learner.Checkpoint in
  let dir = Filename.temp_file "prognosis" ".ckpt" in
  Sys.remove dir;
  let budget = 150 in
  (* Interrupt a TCP study at the query budget — the controlled crash. *)
  (match
     Protocol.learn ~seed:5L
       ~checkpoint:(C.spec ~every:50 ~budget ~dir ())
       tcp
   with
  | _ -> Alcotest.fail "expected Budget_exhausted"
  | exception C.Budget_exhausted { queries; path } ->
      Alcotest.(check int) "aborted at the budget" budget queries;
      Alcotest.(check bool) "snapshot written" true (Sys.file_exists path));
  (* Resume: the canonical model must be byte-identical to an
     uninterrupted run's, and every pre-crash SUL query must now be a
     cache hit. *)
  let resumed =
    Protocol.learn ~seed:5L ~checkpoint:(C.spec ~resume:true ~dir ()) tcp
  in
  let full = Protocol.learn ~seed:5L tcp in
  Alcotest.(check string)
    "byte-identical canonical model"
    (tcp_text (fst full))
    (tcp_text (fst resumed));
  Alcotest.(check bool)
    "pre-crash queries answered from the warmed cache" true
    ((snd resumed).Report.cache_hits >= budget);
  Alcotest.(check bool)
    "resumed run touches the SUL strictly less" true
    ((snd resumed).Report.membership_queries
    < (snd full).Report.membership_queries);
  rm_rf dir

let checkpoint_kind_guard () =
  let module C = Prognosis_learner.Checkpoint in
  let dir = Filename.temp_file "prognosis" ".ckpt" in
  Sys.remove dir;
  (match
     Protocol.learn ~seed:5L
       ~checkpoint:(C.spec ~every:50 ~budget:100 ~dir ())
       tcp
   with
  | _ -> Alcotest.fail "expected Budget_exhausted"
  | exception C.Budget_exhausted _ -> ());
  (* A DTLS resume must refuse the TCP snapshot's kind. *)
  (match C.load ~path:(Filename.concat dir "tcp.ckpt") ~kind:"dtls" with
  | Error (C.Kind_mismatch { found = "tcp"; expected = "dtls"; _ }) -> ()
  | Error e -> Alcotest.fail (C.error_to_string e)
  | Ok (_ : (unit, unit) C.snapshot) ->
      Alcotest.fail "kind mismatch must be refused");
  rm_rf dir

let quic_ncid_property () =
  (* The ncid-buggy profile violates "sequence numbers increase by 1". *)
  let ncids profile =
    let adapter, client = Prognosis_quic.Quic_adapter.create ~profile ~seed:5L () in
    let _ =
      Prognosis_sul.Adapter.query adapter
        Quic_study.Alphabet.[ Initial_crypto; Handshake_ack_crypto ]
    in
    Prognosis_quic.Quic_client.ncid_sequence_numbers client
  in
  let buggy = ncids Quic_study.Profile.ncid_buggy in
  Alcotest.(check bool) "buggy violates" true
    (Prognosis_analysis.Safety.increases_by ~stride:1 buggy
    <> Prognosis_analysis.Safety.Holds)

let () =
  Alcotest.run "core"
    [
      ("report", [ Alcotest.test_case "roundtrip" `Quick report_roundtrip ]);
      ( "persist",
        [
          Alcotest.test_case "roundtrip" `Slow persist_roundtrip;
          Alcotest.test_case "kind guard" `Slow persist_kind_guard;
          Alcotest.test_case "garbage" `Quick persist_rejects_garbage;
          Alcotest.test_case "structured errors" `Quick persist_error_cases;
          Alcotest.test_case "text roundtrip" `Slow persist_text_roundtrip;
          Alcotest.test_case "text canonical across runs" `Slow
            persist_text_canonical_across_runs;
          Alcotest.test_case "text errors" `Quick persist_text_errors;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "resume identical" `Slow checkpoint_resume_identical;
          Alcotest.test_case "kind guard" `Slow checkpoint_kind_guard;
        ] );
      ( "tcp-study",
        [
          Alcotest.test_case "model shape" `Slow tcp_learn_shape;
          Alcotest.test_case "l* agrees" `Slow tcp_learn_lstar_agrees;
          Alcotest.test_case "synthesis invariant" `Slow tcp_synthesis_handshake_invariant;
          Alcotest.test_case "empty witness word" `Quick empty_witness_word;
          Alcotest.test_case "dot" `Slow tcp_dot;
        ] );
      ( "quic-study",
        [
          Alcotest.test_case "reports" `Slow quic_learn_reports;
          Alcotest.test_case "profiles differ (issue 1)" `Slow quic_profiles_differ;
          Alcotest.test_case "seed independence" `Slow quic_same_profile_equivalent;
          Alcotest.test_case "reset rates (issue 2)" `Slow quic_close_reset_rates;
          Alcotest.test_case "sdb compliant" `Slow quic_sdb_synthesis_compliant;
          Alcotest.test_case "sdb google (issue 4)" `Slow quic_sdb_synthesis_google;
          Alcotest.test_case "packet numbers" `Slow quic_packet_numbers_increase;
          Alcotest.test_case "pn register synthesized" `Slow quic_pn_register_synthesized;
          Alcotest.test_case "ncid property" `Slow quic_ncid_property;
        ] );
    ]
