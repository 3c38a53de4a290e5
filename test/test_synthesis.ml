module Mealy = Prognosis_automata.Mealy
module Rng = Prognosis_sul.Rng
module Adapter = Prognosis_sul.Adapter
module Oracle_table = Prognosis_sul.Oracle_table
open Prognosis_synthesis

(* --- term evaluation --- *)

let term_eval () =
  let regs = [| 5; 10 |] and fields_in = [| 100; 200 |] in
  let fields_out = [| Some 7; None |] in
  let eval t = Term.eval ~regs ~fields_in ~fields_out t in
  Alcotest.(check (option int)) "reg" (Some 5) (eval (Term.Reg 0));
  Alcotest.(check (option int)) "reg+1" (Some 11) (eval (Term.Reg_inc 1));
  Alcotest.(check (option int)) "in" (Some 200) (eval (Term.In_field 1));
  Alcotest.(check (option int)) "in+1" (Some 101) (eval (Term.In_field_inc 0));
  Alcotest.(check (option int)) "out" (Some 7) (eval (Term.Out_field 0));
  Alcotest.(check (option int)) "out+1" (Some 8) (eval (Term.Out_field_inc 0));
  Alcotest.(check (option int)) "out unknown" None (eval (Term.Out_field 1));
  Alcotest.(check (option int)) "const" (Some 42) (eval (Term.Const 42))

let term_candidates () =
  let u = Term.update_candidates ~nregs:1 ~in_arity:2 ~out_arity:1 ~consts:[ 0 ] in
  (* r0, r0+1, in0, in0+1, in1, in1+1, out0, out0+1, 0 *)
  Alcotest.(check int) "update candidates" 9 (List.length u);
  let o = Term.output_candidates ~nregs:1 ~in_arity:2 ~consts:[ 0; 3 ] in
  Alcotest.(check int) "output candidates" 8 (List.length o)

let term_constant () =
  Alcotest.(check bool) "const" true (Term.is_constant (Term.Const 0));
  Alcotest.(check bool) "reg" false (Term.is_constant (Term.Reg 0))

(* --- the paper's Figure 4 example ---

   Skeleton: s0 --ACK/NIL--> s1 --SYN/ACK--> s2 (all other transitions
   self-loop for totality). Input fields (sn, an); output fields
   (sn, an). The paper's witness traces pin the update u1 = r+1 and the
   ACK output's an = r+1 (our grammar expresses the same machine via a
   register that tracks an input field). *)

let fig4_skeleton =
  Mealy.make ~size:3 ~initial:0 ~inputs:[| "ACK"; "SYN" |]
    ~delta:[| [| 1; 0 |]; [| 1; 2 |]; [| 2; 2 |] |]
    ~lambda:[| [| "NIL"; "NIL" |]; [| "NIL"; "ACK" |]; [| "NIL"; "NIL" |] |]

let step sym_in fields_in sym_out fields_out =
  { Ext_mealy.sym_in; fields_in; sym_out; fields_out }

(* Trace 1 from the paper: [(ACK(0,3)/NIL), (SYN(2,5)/ACK(4,5))].
   The response ACK's sn=4 = input sn 2 incremented twice is not in the
   grammar, but ack=5 = an of the input; we constrain an and leave
   sn=4 to a register captured from the trace, as the paper does by
   choosing among its fixed term list. *)
let fig4_trace1 =
  [
    step "ACK" [| 0; 3 |] "NIL" [| None; None |];
    step "SYN" [| 2; 5 |] "ACK" [| None; Some 5 |];
  ]

let fig4_trace2 =
  [
    step "ACK" [| 10; 7 |] "NIL" [| None; None |];
    step "SYN" [| 4; 9 |] "ACK" [| None; Some 9 |];
  ]

let fig4_synthesis () =
  let cfg = Synthesizer.default_config ~nregs:1 ~in_arity:2 ~out_arity:2 in
  match
    Synthesizer.solve cfg ~skeleton:fig4_skeleton
      ~traces:[ fig4_trace1; fig4_trace2 ] ()
  with
  | Error e -> Alcotest.fail e
  | Ok machine ->
      Alcotest.(check bool) "explains trace 1" true
        (Ext_mealy.check machine fig4_trace1);
      Alcotest.(check bool) "explains trace 2" true
        (Ext_mealy.check machine fig4_trace2);
      (* The an-output of the ACK transition must be input-derived. *)
      (match Ext_mealy.output_term machine ~state:1 ~input:"SYN" ~field:1 with
      | Some term ->
          Alcotest.(check bool) "an term is not constant" true
            (not (Term.is_constant term))
      | None -> Alcotest.fail "an term missing")

let fig4_register_update () =
  (* Force a register solution: the output field equals the FIRST
     input's an, observed only at the second step — expressible solely
     through a register captured at step one. *)
  let trace1 =
    [
      step "ACK" [| 0; 3 |] "NIL" [| None; None |];
      step "SYN" [| 2; 5 |] "ACK" [| Some 3; None |];
    ]
  in
  let trace2 =
    [
      step "ACK" [| 1; 8 |] "NIL" [| None; None |];
      step "SYN" [| 2; 5 |] "ACK" [| Some 8; None |];
    ]
  in
  let cfg = Synthesizer.default_config ~nregs:1 ~in_arity:2 ~out_arity:2 in
  match Synthesizer.solve cfg ~skeleton:fig4_skeleton ~traces:[ trace1; trace2 ] () with
  | Error e -> Alcotest.fail e
  | Ok machine -> (
      match Ext_mealy.output_term machine ~state:1 ~input:"SYN" ~field:0 with
      | Some (Term.Reg 0) -> (
          match Ext_mealy.update_term machine ~state:0 ~input:"ACK" ~reg:0 with
          | Some (Term.In_field 1) -> ()
          | Some other ->
              Alcotest.fail
                (Fmt.str "unexpected update term %a (wanted in[1])" Term.pp other)
          | None -> Alcotest.fail "update term missing")
      | Some other ->
          Alcotest.fail (Fmt.str "unexpected output term %a (wanted r0)" Term.pp other)
      | None -> Alcotest.fail "output term missing")

let unsatisfiable_reports_error () =
  (* Observed outputs 1 and 2 for identical instances: no term fits. *)
  let t1 = [ step "ACK" [| 0; 0 |] "NIL" [| Some 1; None |] ] in
  let t2 = [ step "ACK" [| 0; 0 |] "NIL" [| Some 2; None |] ] in
  let cfg = Synthesizer.default_config ~nregs:1 ~in_arity:2 ~out_arity:2 in
  match Synthesizer.solve cfg ~skeleton:fig4_skeleton ~traces:[ t1; t2 ] () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected unsatisfiability"

let negative_examples_respected () =
  let positive = [ step "ACK" [| 7; 0 |] "NIL" [| Some 7; None |] ] in
  (* Negative: same transition with output 0 — kills the Const 0 and
     an-based solutions, leaving sn. *)
  let negative = [ step "ACK" [| 0; 5 |] "NIL" [| Some 5; None |] ] in
  let cfg = Synthesizer.default_config ~nregs:0 ~in_arity:2 ~out_arity:2 in
  match
    Synthesizer.solve cfg ~skeleton:fig4_skeleton ~traces:[ positive ]
      ~negatives:[ negative ] ()
  with
  | Error e -> Alcotest.fail e
  | Ok machine -> (
      Alcotest.(check bool) "rejects the negative" false
        (Ext_mealy.check machine negative);
      match Ext_mealy.output_term machine ~state:0 ~input:"ACK" ~field:0 with
      | Some (Term.In_field 0) -> ()
      | Some other -> Alcotest.fail (Fmt.str "got %a, wanted in[0]" Term.pp other)
      | None -> Alcotest.fail "term missing")

let skeleton_mismatch_fails () =
  (* Trace disagrees with the skeleton's abstract output. *)
  let bad = [ step "ACK" [| 0; 0 |] "ACK" [| None; None |] ] in
  let cfg = Synthesizer.default_config ~nregs:0 ~in_arity:2 ~out_arity:2 in
  match Synthesizer.solve cfg ~skeleton:fig4_skeleton ~traces:[ bad ] () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "skeleton-inconsistent trace must fail"

let ext_machine_predict () =
  let cfg = Synthesizer.default_config ~nregs:1 ~in_arity:2 ~out_arity:2 in
  match
    Synthesizer.solve cfg ~skeleton:fig4_skeleton
      ~traces:[ fig4_trace1; fig4_trace2 ] ()
  with
  | Error e -> Alcotest.fail e
  | Ok machine -> (
      match Ext_mealy.predict machine fig4_trace1 with
      | Error e -> Alcotest.fail e
      | Ok predictions ->
          Alcotest.(check int) "one prediction per step" 2 (List.length predictions);
          let last = List.nth predictions 1 in
          Alcotest.(check (option int)) "an predicted" (Some 5) last.(1))

let refine_converges () =
  (* The SUL echoes its input's first field; sampling draws random
     instances. *)
  let rng = Rng.create 77L in
  let sample () =
    let v = Rng.int rng 1000 in
    [ step "ACK" [| v; 0 |] "NIL" [| Some v; None |] ]
  in
  let cfg = Synthesizer.default_config ~nregs:0 ~in_arity:2 ~out_arity:2 in
  (* Seed with a misleading trace where sn = an = const-looking 3. *)
  let seed_trace = [ step "ACK" [| 3; 3 |] "NIL" [| Some 3; None |] ] in
  match
    Synthesizer.refine cfg ~skeleton:fig4_skeleton ~sample ~rounds:10
      ~traces:[ seed_trace ]
  with
  | Error e -> Alcotest.fail e
  | Ok (machine, witnesses) -> (
      Alcotest.(check bool) "gained witnesses" true (List.length witnesses >= 1);
      match Ext_mealy.output_term machine ~state:0 ~input:"ACK" ~field:0 with
      | Some (Term.In_field 0) -> ()
      | Some other -> Alcotest.fail (Fmt.str "got %a, wanted in[0]" Term.pp other)
      | None -> Alcotest.fail "term missing")

let dot_rendering () =
  let cfg = Synthesizer.default_config ~nregs:1 ~in_arity:2 ~out_arity:2 in
  match Synthesizer.solve cfg ~skeleton:fig4_skeleton ~traces:[ fig4_trace1 ] () with
  | Error e -> Alcotest.fail e
  | Ok machine ->
      let dot =
        Ext_mealy.to_dot ~input_pp:Fmt.string ~output_pp:Fmt.string
          ~names_in:[| "sn"; "an" |] ~names_out:[| "sn"; "an" |] machine
      in
      Alcotest.(check bool) "digraph" true (String.length dot > 50);
      Alcotest.(check bool) "mentions register" true
        (let rec contains h n i =
           i + String.length n <= String.length h
           && (String.sub h i (String.length n) = n || contains h n (i + 1))
         in
         contains dot "r0" 0)

(* --- end-to-end: synthesize registers from the TCP Oracle Table (E8) --- *)

module Tcp = Prognosis_tcp

let tcp_fields_in (seg : Tcp.Tcp_wire.segment) =
  [| seg.Tcp.Tcp_wire.seq; seg.Tcp.Tcp_wire.ack; String.length seg.Tcp.Tcp_wire.payload |]

(* The server's own initial sequence number is random and inexpressible
   (the paper leaves such parameters as '?'); we constrain only the
   acknowledgement number of responses. *)
let tcp_fields_out (seg : Tcp.Tcp_wire.segment) =
  [| None; (if seg.Tcp.Tcp_wire.flags.Tcp.Tcp_wire.ack then Some seg.Tcp.Tcp_wire.ack else None) |]

let tcp_oracle_traces adapter words =
  List.map
    (fun word ->
      let _ = Adapter.query adapter word in
      match Oracle_table.find adapter.Adapter.table word with
      | None -> Alcotest.fail "oracle table entry missing"
      | Some entry ->
          List.map2
            (fun (sym, out) (oracle_step : _ Oracle_table.step) ->
              let fields_in =
                match oracle_step.Oracle_table.sent with
                | [ seg ] -> tcp_fields_in seg
                | _ -> Alcotest.fail "expected one sent segment per step"
              in
              let fields_out =
                match oracle_step.Oracle_table.received with
                | [] -> [| None; None |]
                | seg :: _ -> tcp_fields_out seg
              in
              { Ext_mealy.sym_in = sym; fields_in; sym_out = out; fields_out })
            (List.combine entry.Oracle_table.abstract_inputs
               entry.Oracle_table.abstract_outputs)
            entry.Oracle_table.steps)
    words

let tcp_synthesis_end_to_end () =
  let adapter = Tcp.Tcp_adapter.create ~seed:97L () in
  let words =
    Tcp.Tcp_alphabet.
      [
        [ Syn; Ack; Ack_psh; Ack_psh ];
        [ Syn; Ack_psh; Fin_ack ];
        [ Syn; Ack; Fin_ack; Ack ];
      ]
  in
  let traces = tcp_oracle_traces adapter words in
  (* Learn the skeleton over the same SUL. *)
  let sul = Tcp.Tcp_adapter.sul ~seed:97L () in
  let eq = Prognosis_learner.Eq_oracle.w_method ~extra_states:1 () in
  let skeleton =
    match
      Prognosis.Pipeline.learn ~subject:"tcp" ~seed:0L
        ~algorithm:Prognosis_learner.Learn.Ttt_tree ~inputs:Tcp.Tcp_alphabet.all
        ~factory:(fun ~seed:_ ~workers:_ _ -> sul)
        ~eq ()
    with
    | Ok (model, _) -> model
    | Error _ -> Alcotest.fail "nondeterministic SUL"
  in
  let cfg =
    { (Synthesizer.default_config ~nregs:1 ~in_arity:3 ~out_arity:2) with
      consts = [ 0 ] }
  in
  match Synthesizer.solve cfg ~skeleton ~traces () with
  | Error e -> Alcotest.fail e
  | Ok machine -> (
      List.iter
        (fun trace ->
          Alcotest.(check bool) "explains oracle trace" true
            (Ext_mealy.check machine trace))
        traces;
      (* The SYN+ACK's acknowledgement number must track the client's
         sequence number + 1 — the 3-way handshake invariant. *)
      match
        Ext_mealy.output_term machine ~state:(Mealy.initial skeleton)
          ~input:Tcp.Tcp_alphabet.Syn ~field:1
      with
      | Some (Term.In_field_inc 0) -> ()
      | Some other ->
          Alcotest.fail (Fmt.str "ack term %a (wanted sn+1)" Term.pp other)
      | None -> Alcotest.fail "ack term missing")

let () =
  Alcotest.run "synthesis"
    [
      ( "terms",
        [
          Alcotest.test_case "eval" `Quick term_eval;
          Alcotest.test_case "candidates" `Quick term_candidates;
          Alcotest.test_case "constants" `Quick term_constant;
        ] );
      ( "solver",
        [
          Alcotest.test_case "figure 4" `Quick fig4_synthesis;
          Alcotest.test_case "register capture" `Quick fig4_register_update;
          Alcotest.test_case "unsat" `Quick unsatisfiable_reports_error;
          Alcotest.test_case "negatives" `Quick negative_examples_respected;
          Alcotest.test_case "skeleton mismatch" `Quick skeleton_mismatch_fails;
          Alcotest.test_case "predict" `Quick ext_machine_predict;
          Alcotest.test_case "refine" `Quick refine_converges;
          Alcotest.test_case "dot" `Quick dot_rendering;
        ] );
      ( "tcp",
        [ Alcotest.test_case "oracle-table synthesis" `Slow tcp_synthesis_end_to_end ] );
    ]
