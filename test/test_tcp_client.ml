(* Learning the TCP client role (the [22]-style setup with socket-call
   triggers), exercised at machine, adapter and learning level. *)

module Mealy = Prognosis_automata.Mealy
module Sul = Prognosis_sul.Sul
module Rng = Prognosis_sul.Rng
module Nondet = Prognosis_sul.Nondet
module Learn = Prognosis_learner.Learn
module Eq_oracle = Prognosis_learner.Eq_oracle
open Prognosis_tcp
module M = Tcp_client_machine
module Study = Tcp_client_study

(* --- the client machine --- *)

let fresh () = M.create (Rng.create 3L)

let server_seg ?(payload = "") ~seq ~ack flags =
  Tcp_wire.make ~payload ~src_port:443 ~dst_port:40000 ~seq ~ack
    (Tcp_wire.flags_of_string flags)

let connect_and_establish m =
  (* CONNECT emits a SYN; a valid SYN+ACK completes the handshake. *)
  match M.command m M.Connect with
  | [ syn ] ->
      Alcotest.(check string) "syn" "S" (Tcp_wire.flags_to_string syn.Tcp_wire.flags);
      let server_iss = 9000 in
      let synack =
        server_seg ~seq:server_iss ~ack:(Tcp_wire.seq_add syn.Tcp_wire.seq 1) "SA"
      in
      (match M.handle m synack with
      | [ ack ] ->
          Alcotest.(check string) "final ack" "A"
            (Tcp_wire.flags_to_string ack.Tcp_wire.flags);
          Alcotest.(check int) "acks server isn+1" (server_iss + 1) ack.Tcp_wire.ack
      | _ -> Alcotest.fail "expected final ACK");
      Alcotest.(check string) "established" "ESTABLISHED"
        (M.state_to_string (M.state m));
      (Tcp_wire.seq_add syn.Tcp_wire.seq 1, server_iss + 1)
  | _ -> Alcotest.fail "expected exactly one SYN"

let machine_handshake () = ignore (connect_and_establish (fresh ()))

let machine_send_and_close () =
  let m = fresh () in
  let cseq, sseq = connect_and_establish m in
  (match M.command m M.Send with
  | [ data ] ->
      Alcotest.(check string) "push" "AP" (Tcp_wire.flags_to_string data.Tcp_wire.flags);
      Alcotest.(check int) "seq" cseq data.Tcp_wire.seq
  | _ -> Alcotest.fail "expected one data segment");
  (match M.command m M.Close with
  | [ fin ] ->
      Alcotest.(check string) "fin" "AF" (Tcp_wire.flags_to_string fin.Tcp_wire.flags);
      Alcotest.(check string) "fin-wait-1" "FIN_WAIT_1" (M.state_to_string (M.state m));
      (* Server ACKs our FIN, then sends its own. *)
      let _ = M.handle m (server_seg ~seq:sseq ~ack:(fin.Tcp_wire.seq + 1) "A") in
      Alcotest.(check string) "fin-wait-2" "FIN_WAIT_2" (M.state_to_string (M.state m));
      (match M.handle m (server_seg ~seq:sseq ~ack:(fin.Tcp_wire.seq + 1) "AF") with
      | [ ack ] ->
          Alcotest.(check string) "acks server fin" "A"
            (Tcp_wire.flags_to_string ack.Tcp_wire.flags)
      | _ -> Alcotest.fail "expected ACK of server FIN");
      Alcotest.(check string) "time-wait" "TIME_WAIT" (M.state_to_string (M.state m))
  | _ -> Alcotest.fail "expected one FIN segment")

let machine_passive_close () =
  let m = fresh () in
  let cseq, sseq = connect_and_establish m in
  (* Server closes first. *)
  let _ = M.handle m (server_seg ~seq:sseq ~ack:cseq "AF") in
  Alcotest.(check string) "close-wait" "CLOSE_WAIT" (M.state_to_string (M.state m));
  (match M.command m M.Close with
  | [ fin ] ->
      Alcotest.(check string) "our fin" "AF" (Tcp_wire.flags_to_string fin.Tcp_wire.flags);
      let _ = M.handle m (server_seg ~seq:(sseq + 1) ~ack:(fin.Tcp_wire.seq + 1) "A") in
      Alcotest.(check string) "fully closed" "CLOSED_FINAL"
        (M.state_to_string (M.state m))
  | _ -> Alcotest.fail "expected FIN")

let machine_connection_refused () =
  let m = fresh () in
  (match M.command m M.Connect with
  | [ syn ] ->
      let rst = server_seg ~seq:0 ~ack:(syn.Tcp_wire.seq + 1) "R" in
      Alcotest.(check (list pass)) "silent on refusal" [] (M.handle m rst);
      Alcotest.(check string) "refused" "CLOSED_FINAL" (M.state_to_string (M.state m))
  | _ -> Alcotest.fail "expected SYN");
  (* A one-shot client does not reconnect. *)
  Alcotest.(check (list pass)) "no reconnect" [] (M.command m M.Connect)

let machine_commands_before_connect () =
  let m = fresh () in
  Alcotest.(check (list pass)) "send ignored" [] (M.command m M.Send);
  Alcotest.(check (list pass)) "close ignored" [] (M.command m M.Close);
  Alcotest.(check string) "still closed" "CLOSED" (M.state_to_string (M.state m))

(* --- the adapter --- *)

let run_word seed word =
  let sul = Study.sul ~seed () in
  List.map Study.output_to_string (Sul.query sul word)

let adapter_lifecycle () =
  let out =
    run_word 5L
      Study.[ Cmd_connect; In_syn_ack; Cmd_send; In_ack; Cmd_close; In_fin_ack ]
  in
  Alcotest.(check (list string)) "lifecycle"
    [
      "SYN(?,?,0)";
      "ACK(?,?,0)";
      "ACK+PSH(?,?,1)";
      "NIL";
      "FIN+ACK(?,?,0)";
      (* FIN+ACK from the server both acks our FIN and closes: we ack. *)
      "ACK(?,?,0)";
    ]
    out

let adapter_refusal () =
  let out = run_word 7L Study.[ Cmd_connect; In_rst; Cmd_connect ] in
  Alcotest.(check (list string)) "refused, no reconnect"
    [ "SYN(?,?,0)"; "NIL"; "NIL" ]
    out

let adapter_deterministic () =
  let sul = Study.sul ~seed:9L () in
  let words =
    Study.
      [
        [ Cmd_connect; In_syn_ack; Cmd_send; Cmd_close; In_ack; In_fin_ack ];
        [ In_syn_ack; Cmd_connect; In_ack_psh ];
        [ Cmd_connect; In_rst; Cmd_send ];
        [ Cmd_close; Cmd_send; Cmd_connect; In_fin_ack ];
      ]
  in
  List.iter
    (fun w ->
      match Nondet.query Nondet.default sul w with
      | Nondet.Deterministic _ -> ()
      | Nondet.Nondeterministic _ -> Alcotest.fail "client SUL must be deterministic")
    words

(* --- learning the client role --- *)

let scenarios =
  Study.
    [
      [ Cmd_connect; In_syn_ack; Cmd_send; In_ack; Cmd_close; In_ack; In_fin_ack ];
      [ Cmd_connect; In_syn_ack; In_fin_ack; Cmd_close; In_ack ];
      [ Cmd_connect; In_syn_ack; Cmd_close; In_fin_ack ];
      [ Cmd_connect; In_rst; Cmd_connect ];
    ]

let learn_client seed =
  let sul = Study.sul ~seed () in
  let rng = Rng.create (Int64.add seed 70L) in
  let eq =
    Eq_oracle.combine
      [
        Eq_oracle.fixed_words scenarios;
        Eq_oracle.w_method ~extra_states:1 ();
        Eq_oracle.random_words ~rng ~max_tests:400 ~min_len:1 ~max_len:10;
      ]
  in
  match
    Prognosis.Pipeline.learn ~subject:"tcp-client" ~seed:0L ~algorithm:Learn.Ttt_tree
      ~inputs:Study.all ~factory:(fun ~seed:_ ~workers:_ _ -> sul) ~eq ()
  with
  | Ok (model, _) -> model
  | Error _ -> Alcotest.fail "nondeterministic SUL"

let learned_client_shape () =
  let m = learn_client 11L in
  Alcotest.(check bool)
    (Printf.sprintf "states %d in [7..12]" (Mealy.size m))
    true
    (Mealy.size m >= 7 && Mealy.size m <= 12);
  (* The model replays the full active-close lifecycle. *)
  let out =
    Mealy.run m Study.[ Cmd_connect; In_syn_ack; Cmd_close; In_ack; In_fin_ack ]
  in
  Alcotest.(check (list string)) "active close path"
    [ "SYN(?,?,0)"; "ACK(?,?,0)"; "FIN+ACK(?,?,0)"; "NIL"; "ACK(?,?,0)" ]
    (List.map Study.output_to_string out)

let learned_client_seed_independent () =
  let a = learn_client 13L and b = learn_client 17L in
  Alcotest.(check bool) "equivalent" true
    (Mealy.equivalent a b = None)

let client_property_syn_first () =
  (* Safety: the client never emits data before a SYN was emitted. *)
  let m = learn_client 19L in
  let emits sym (o : Study.output) = List.mem sym o in
  let monitor =
    Prognosis_automata.Dfa.make ~size:3 ~initial:0
      ~delta:(fun s ((_ : Study.symbol), o) ->
        match s with
        | 0 ->
            if emits Tcp_alphabet.Ack_psh o then 2
            else if emits Tcp_alphabet.Syn o then 1
            else 0
        | s -> s)
      ~accepting:(fun s -> s <> 2)
  in
  let prop = Prognosis_analysis.Safety.of_monitor "no data before SYN" monitor in
  Alcotest.(check (option (list pass))) "holds" None
    (Prognosis_analysis.Safety.check prop m)

(* --- property-based: the machine never crashes and keeps invariants --- *)

let gen_event =
  QCheck2.Gen.(
    oneof
      [
        map (fun c -> `Cmd c) (oneofl [ M.Connect; M.Send; M.Close ]);
        map
          (fun (flags, seq, ack) -> `Seg (flags, seq, ack))
          (triple (oneofl [ "SA"; "A"; "AP"; "AF"; "R" ]) (int_range 0 100000)
             (int_range 0 100000));
      ])

let prop_machine_total =
  QCheck2.Test.make ~count:200 ~name:"client machine is total and seq-monotone"
    QCheck2.Gen.(pair (int_range 0 10000) (list_size (int_range 1 20) gen_event))
    (fun (seed, events) ->
      let m = M.create (Rng.create (Int64.of_int seed)) in
      let last_emitted_seq = ref (-1) in
      List.for_all
        (fun event ->
          let emitted =
            match event with
            | `Cmd c -> M.command m c
            | `Seg (flags, seq, ack) ->
                M.handle m
                  (Tcp_wire.make ~src_port:443 ~dst_port:40000 ~seq ~ack
                     (Tcp_wire.flags_of_string flags))
          in
          (* Non-RST data-bearing segments never move sequence numbers
             backwards. *)
          List.for_all
            (fun (seg : Tcp_wire.segment) ->
              if seg.Tcp_wire.flags.Tcp_wire.rst then true
              else if
                String.length seg.Tcp_wire.payload > 0
                || seg.Tcp_wire.flags.Tcp_wire.syn
                || seg.Tcp_wire.flags.Tcp_wire.fin
              then begin
                let ok = !last_emitted_seq <= seg.Tcp_wire.seq in
                last_emitted_seq := seg.Tcp_wire.seq;
                ok
              end
              else true)
            emitted)
        events)

let prop_machine_closed_final_is_sink =
  QCheck2.Test.make ~count:100 ~name:"CLOSED_FINAL absorbs every command"
    QCheck2.Gen.(list_size (int_range 0 10) gen_event)
    (fun events ->
      let m = M.create (Rng.create 5L) in
      (* Reach CLOSED_FINAL via refusal. *)
      let _ = M.command m M.Connect in
      let _ =
        M.handle m
          (Tcp_wire.make ~src_port:443 ~dst_port:40000 ~seq:0 ~ack:0
             (Tcp_wire.flags_of_string "R"))
      in
      M.state m = M.Closed_final
      && List.for_all
           (fun event ->
             let quiet =
               match event with
               | `Cmd c -> M.command m c = []
               | `Seg (flags, seq, ack) ->
                   (* Stray segments may be refused with a RST, but the
                      state must not move. *)
                   ignore
                     (M.handle m
                        (Tcp_wire.make ~src_port:443 ~dst_port:40000 ~seq ~ack
                           (Tcp_wire.flags_of_string flags)));
                   true
             in
             quiet && M.state m = M.Closed_final)
           events)

let () =
  Alcotest.run "tcp-client"
    [
      ( "machine",
        [
          Alcotest.test_case "handshake" `Quick machine_handshake;
          Alcotest.test_case "send and close" `Quick machine_send_and_close;
          Alcotest.test_case "passive close" `Quick machine_passive_close;
          Alcotest.test_case "connection refused" `Quick machine_connection_refused;
          Alcotest.test_case "commands before connect" `Quick machine_commands_before_connect;
        ] );
      ( "adapter",
        [
          Alcotest.test_case "lifecycle" `Quick adapter_lifecycle;
          Alcotest.test_case "refusal" `Quick adapter_refusal;
          Alcotest.test_case "deterministic" `Quick adapter_deterministic;
        ] );
      ( "learning",
        [
          Alcotest.test_case "model shape" `Slow learned_client_shape;
          Alcotest.test_case "seed independent" `Slow learned_client_seed_independent;
          Alcotest.test_case "syn-first property" `Slow client_property_syn_first;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_machine_total; prop_machine_closed_final_is_sink ] );
    ]
