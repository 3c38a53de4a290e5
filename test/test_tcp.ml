module Mealy = Prognosis_automata.Mealy
module Sul = Prognosis_sul.Sul
module Rng = Prognosis_sul.Rng
module Nondet = Prognosis_sul.Nondet
module Adapter = Prognosis_sul.Adapter
module Oracle_table = Prognosis_sul.Oracle_table
module Learn = Prognosis_learner.Learn
module Eq_oracle = Prognosis_learner.Eq_oracle
open Prognosis_tcp

(* --- wire codec --- *)

let roundtrip () =
  let seg =
    Tcp_wire.make ~payload:"hello" ~src_port:40000 ~dst_port:443 ~seq:123456
      ~ack:654321
      (Tcp_wire.flags_of_string "AP")
  in
  match Tcp_wire.decode (Tcp_wire.encode seg) with
  | Error e -> Alcotest.fail e
  | Ok seg' ->
      Alcotest.(check int) "seq" seg.Tcp_wire.seq seg'.Tcp_wire.seq;
      Alcotest.(check int) "ack" seg.Tcp_wire.ack seg'.Tcp_wire.ack;
      Alcotest.(check string) "payload" "hello" seg'.Tcp_wire.payload;
      Alcotest.(check string) "flags" "AP"
        (Tcp_wire.flags_to_string seg'.Tcp_wire.flags)

let checksum_detects_corruption () =
  let seg =
    Tcp_wire.make ~src_port:1 ~dst_port:2 ~seq:7 ~ack:9
      (Tcp_wire.flags_of_string "S")
  in
  let wire = Bytes.of_string (Tcp_wire.encode seg) in
  Bytes.set wire 5 (Char.chr (Char.code (Bytes.get wire 5) lxor 0x10));
  match Tcp_wire.decode (Bytes.to_string wire) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "corrupted segment must not decode"

let short_segment_rejected () =
  match Tcp_wire.decode "tiny" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "short data must not decode"

let flags_roundtrip () =
  List.iter
    (fun s ->
      Alcotest.(check string) s s
        (Tcp_wire.flags_to_string (Tcp_wire.flags_of_string s)))
    [ "S"; "SA"; "A"; "AF"; "AR"; "AP"; "R" ]

let json_concrete_alphabet () =
  (* The paper's Example 3.2 concrete-alphabet rendering. *)
  let seg =
    Tcp_wire.make ~window:8192 ~src_port:40965 ~dst_port:44344 ~seq:48108 ~ack:0
      (Tcp_wire.flags_of_string "S")
  in
  let json = Tcp_wire.to_json seg in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("contains " ^ needle) true
        (let n = String.length needle and h = String.length json in
         let rec loop i =
           i + n <= h && (String.sub json i n = needle || loop (i + 1))
         in
         loop 0))
    [
      "\"isNull\": false";
      "\"sourcePort\": 40965";
      "\"destinationPort\": 44344";
      "\"seqNumber\": 48108";
      "\"ackNumber\": 0";
      "\"dataOffset\": null";
      "\"flags\": \"S\"";
      "\"window\": 8192";
      "\"checksum\": null";
      "\"urgentPointer\": 0";
    ]

let options_roundtrip () =
  let options =
    Tcp_wire.
      [ Mss 1460; Window_scale 7; Sack_permitted; Timestamps { value = 123456; echo = 654321 } ]
  in
  let seg =
    Tcp_wire.make ~options ~payload:"pp" ~src_port:1 ~dst_port:2 ~seq:10 ~ack:20
      (Tcp_wire.flags_of_string "S")
  in
  match Tcp_wire.decode (Tcp_wire.encode seg) with
  | Error e -> Alcotest.fail e
  | Ok seg' ->
      Alcotest.(check int) "all options survive" 4 (List.length seg'.Tcp_wire.options);
      Alcotest.(check (option int)) "mss" (Some 1460) (Tcp_wire.find_mss seg');
      Alcotest.(check string) "payload intact" "pp" seg'.Tcp_wire.payload

let syn_negotiates_mss () =
  let server = Tcp_server.create (Rng.create 5L) in
  let syn =
    Tcp_wire.make
      ~options:[ Tcp_wire.Mss 1200 ]
      ~src_port:40000 ~dst_port:443 ~seq:500 ~ack:0
      (Tcp_wire.flags_of_string "S")
  in
  match Tcp_server.handle server syn with
  | [ synack ] ->
      Alcotest.(check (option int)) "server caps at peer mss" (Some 1200)
        (Tcp_wire.find_mss synack)
  | _ -> Alcotest.fail "expected SYN+ACK"

let seq_add_wraps () =
  Alcotest.(check int) "wrap" 1 (Tcp_wire.seq_add 0xFFFFFFFF 2);
  Alcotest.(check int) "negative" 0xFFFFFFFF (Tcp_wire.seq_add 0 (-1))

(* --- abstract alphabet --- *)

let alphabet_size () =
  Alcotest.(check int) "7 symbols" 7 (Array.length Tcp_alphabet.all)

let abstract_flags () =
  let seg flags payload =
    Tcp_wire.make ~payload ~src_port:1 ~dst_port:2 ~seq:0 ~ack:0
      (Tcp_wire.flags_of_string flags)
  in
  Alcotest.(check bool) "syn" true (Tcp_alphabet.abstract (seg "S" "") = Some Tcp_alphabet.Syn);
  Alcotest.(check bool) "synack" true
    (Tcp_alphabet.abstract (seg "SA" "") = Some Tcp_alphabet.Syn_ack);
  Alcotest.(check bool) "ack+data is AckPsh view" true
    (Tcp_alphabet.abstract (seg "A" "D") = Some Tcp_alphabet.Ack_psh);
  Alcotest.(check bool) "finack" true
    (Tcp_alphabet.abstract (seg "AF" "") = Some Tcp_alphabet.Fin_ack);
  Alcotest.(check bool) "unknown" true (Tcp_alphabet.abstract (seg "SF" "") = None)

(* --- server state machine --- *)

let fresh_server () = Tcp_server.create (Rng.create 42L)

let client_seg ?(payload = "") ~seq ~ack flags =
  Tcp_wire.make ~payload ~src_port:40000 ~dst_port:443 ~seq ~ack
    (Tcp_wire.flags_of_string flags)

let handshake server =
  (* Returns (client_seq, server_seq) after completing the handshake. *)
  let syn = client_seg ~seq:1000 ~ack:0 "S" in
  match Tcp_server.handle server syn with
  | [ synack ] ->
      Alcotest.(check string) "synack flags" "SA"
        (Tcp_wire.flags_to_string synack.Tcp_wire.flags);
      Alcotest.(check int) "acks our syn" 1001 synack.Tcp_wire.ack;
      let server_seq = Tcp_wire.seq_add synack.Tcp_wire.seq 1 in
      let final_ack = client_seg ~seq:1001 ~ack:server_seq "A" in
      Alcotest.(check (list pass)) "silent" [] (Tcp_server.handle server final_ack);
      Alcotest.(check string) "established" "ESTABLISHED"
        (Tcp_server.state_to_string (Tcp_server.state server));
      (1001, server_seq)
  | _ -> Alcotest.fail "expected exactly one SYN+ACK"

let server_handshake () = ignore (handshake (fresh_server ()))

let server_refuses_stray_ack () =
  let server = fresh_server () in
  match Tcp_server.handle server (client_seg ~seq:5 ~ack:77 "A") with
  | [ rst ] ->
      Alcotest.(check string) "rst" "R" (Tcp_wire.flags_to_string rst.Tcp_wire.flags);
      Alcotest.(check int) "rst seq from ack" 77 rst.Tcp_wire.seq
  | _ -> Alcotest.fail "expected RST"

let server_data_acked () =
  let server = fresh_server () in
  let cseq, sseq = handshake server in
  match Tcp_server.handle server (client_seg ~payload:"D" ~seq:cseq ~ack:sseq "AP") with
  | [ ack ] ->
      Alcotest.(check string) "ack" "A" (Tcp_wire.flags_to_string ack.Tcp_wire.flags);
      Alcotest.(check int) "acks data" (cseq + 1) ack.Tcp_wire.ack
  | _ -> Alcotest.fail "expected ACK of data"

let server_full_close () =
  let server = fresh_server () in
  let cseq, sseq = handshake server in
  (* Client FIN. *)
  (match Tcp_server.handle server (client_seg ~seq:cseq ~ack:sseq "AF") with
  | [ ack ] ->
      Alcotest.(check string) "ack of fin" "A"
        (Tcp_wire.flags_to_string ack.Tcp_wire.flags)
  | _ -> Alcotest.fail "expected ACK of FIN");
  Alcotest.(check string) "close-wait" "CLOSE_WAIT"
    (Tcp_server.state_to_string (Tcp_server.state server));
  (* Client ACK prompts the application close: server FIN. *)
  (match Tcp_server.handle server (client_seg ~seq:(cseq + 1) ~ack:sseq "A") with
  | [ fin ] ->
      Alcotest.(check string) "server fin" "AF"
        (Tcp_wire.flags_to_string fin.Tcp_wire.flags);
      (* Final ACK. *)
      let final =
        client_seg ~seq:(cseq + 1) ~ack:(Tcp_wire.seq_add fin.Tcp_wire.seq 1) "A"
      in
      Alcotest.(check (list pass)) "silent close" [] (Tcp_server.handle server final)
  | _ -> Alcotest.fail "expected server FIN");
  Alcotest.(check string) "closed" "CLOSED"
    (Tcp_server.state_to_string (Tcp_server.state server));
  (* One-shot server refuses a new SYN after full close. *)
  match Tcp_server.handle server (client_seg ~seq:9999 ~ack:0 "S") with
  | [ rst ] ->
      Alcotest.(check bool) "refused" true rst.Tcp_wire.flags.Tcp_wire.rst
  | _ -> Alcotest.fail "expected RST after close"

let server_rst_aborts () =
  let server = fresh_server () in
  let cseq, _sseq = handshake server in
  Alcotest.(check (list pass)) "silent abort" []
    (Tcp_server.handle server (client_seg ~seq:cseq ~ack:0 "R"));
  Alcotest.(check string) "closed" "CLOSED"
    (Tcp_server.state_to_string (Tcp_server.state server))

let server_challenge_ack_on_syn () =
  let server = fresh_server () in
  let _cseq, _sseq = handshake server in
  match Tcp_server.handle server (client_seg ~seq:2000 ~ack:0 "S") with
  | [ challenge ] ->
      Alcotest.(check string) "challenge ack" "A"
        (Tcp_wire.flags_to_string challenge.Tcp_wire.flags)
  | _ -> Alcotest.fail "expected challenge ACK"

let server_reset_restores () =
  let server = fresh_server () in
  ignore (handshake server);
  Tcp_server.reset server;
  Alcotest.(check string) "listen again" "LISTEN"
    (Tcp_server.state_to_string (Tcp_server.state server))

let server_drops_bad_checksum () =
  let server = fresh_server () in
  let wire = Bytes.of_string (Tcp_wire.encode (client_seg ~seq:1 ~ack:0 "S")) in
  Bytes.set wire 4 '\xFF';
  Alcotest.(check (list string)) "dropped" []
    (Tcp_server.handle_bytes server (Bytes.to_string wire))

(* --- adapter + determinism --- *)

let make_sul () = Tcp_adapter.sul ~seed:7L ()

let adapter_handshake () =
  let sul = make_sul () in
  let out = Sul.query sul Tcp_alphabet.[ Syn; Ack ] in
  Alcotest.(check (list string)) "3-way handshake"
    [ "SYN+ACK(?,?,0)"; "NIL" ]
    (List.map Tcp_alphabet.output_to_string out)

let adapter_data_exchange () =
  let sul = make_sul () in
  let out = Sul.query sul Tcp_alphabet.[ Syn; Ack; Ack_psh ] in
  Alcotest.(check (list string)) "data is acked"
    [ "SYN+ACK(?,?,0)"; "NIL"; "ACK(?,?,0)" ]
    (List.map Tcp_alphabet.output_to_string out)

let adapter_deterministic () =
  let sul = make_sul () in
  let words =
    Tcp_alphabet.
      [
        [ Syn; Ack; Ack_psh; Fin_ack; Ack; Ack ];
        [ Syn; Syn; Ack; Rst; Syn ];
        [ Ack; Ack_psh; Fin_ack ];
        [ Syn; Fin_ack; Ack_psh; Ack_rst; Syn_ack ];
      ]
  in
  List.iter
    (fun w ->
      match Nondet.query Nondet.default sul w with
      | Nondet.Deterministic _ -> ()
      | Nondet.Nondeterministic _ -> Alcotest.fail "TCP SUL must be deterministic")
    words

let adapter_oracle_table_records () =
  let adapter = Tcp_adapter.create ~seed:7L () in
  let _ = Adapter.query adapter Tcp_alphabet.[ Syn; Ack ] in
  Alcotest.(check int) "one entry" 1
    (Oracle_table.size adapter.Prognosis_sul.Adapter.table);
  match Oracle_table.entries adapter.Prognosis_sul.Adapter.table with
  | [ e ] ->
      Alcotest.(check int) "two steps" 2 (List.length e.Oracle_table.steps);
      Alcotest.(check int) "two concrete inputs" 2
        (List.length (Oracle_table.concrete_inputs e));
      Alcotest.(check int) "one concrete output" 1
        (List.length (Oracle_table.concrete_outputs e))
  | _ -> Alcotest.fail "expected exactly one entry"

(* --- learning the TCP model (paper §6.1) --- *)

let learn_tcp () =
  let sul = make_sul () in
  let rng = Rng.create 3L in
  let eq =
    Eq_oracle.combine
      [
        Eq_oracle.w_method ~extra_states:1 ();
        Eq_oracle.random_words ~rng ~max_tests:500 ~min_len:1 ~max_len:12;
      ]
  in
  match
    Prognosis.Pipeline.learn ~subject:"tcp" ~seed:0L ~algorithm:Learn.Ttt_tree
      ~inputs:Tcp_alphabet.all ~factory:(fun ~seed:_ ~workers:_ _ -> sul) ~eq ()
  with
  | Ok (model, _) -> model
  | Error _ -> Alcotest.fail "nondeterministic SUL"

let tcp_model_shape () =
  let m = learn_tcp () in
  Alcotest.(check int) "six states (paper: 6)" 6 (Mealy.size m);
  Alcotest.(check int) "42 transitions (paper: 42)" 42 (Mealy.transitions m)

let tcp_model_handshake_path () =
  let m = learn_tcp () in
  let out = Mealy.run m Tcp_alphabet.[ Syn; Ack ] in
  Alcotest.(check (list string)) "model handshake"
    [ "SYN+ACK(?,?,0)"; "NIL" ]
    (List.map Tcp_alphabet.output_to_string out)

let tcp_model_agrees_with_sul () =
  let m = learn_tcp () in
  let sul = make_sul () in
  let rng = Rng.create 123L in
  (* Random probing: model and SUL agree on fresh traces. *)
  for _ = 1 to 200 do
    let len = 1 + Rng.int rng 10 in
    let word =
      List.init len (fun _ -> Tcp_alphabet.all.(Rng.int rng 7))
    in
    if Sul.query sul word <> Mealy.run m word then
      Alcotest.fail "model disagrees with SUL"
  done

let tcp_model_appendix_spot_checks () =
  (* Transitions the paper's Appendix A.1 figure shows for the Linux
     stack, checked on our learned model at the abstract level. *)
  let m = learn_tcp () in
  let out_after prefix sym =
    let state = Mealy.state_after m prefix in
    Tcp_alphabet.output_to_string (snd (Mealy.step m state sym))
  in
  (* Listener refuses stray segments with RST... *)
  Alcotest.(check string) "LISTEN: SYN+ACK refused" "RST(?,?,0)"
    (out_after [] Tcp_alphabet.Syn_ack);
  Alcotest.(check string) "LISTEN: ACK refused" "RST(?,?,0)"
    (out_after [] Tcp_alphabet.Ack);
  (* ...but stays silent on RSTs. *)
  Alcotest.(check string) "LISTEN: RST silent" "NIL" (out_after [] Tcp_alphabet.Rst);
  (* SYN_RCVD: retransmitted SYN re-answered with SYN+ACK. *)
  Alcotest.(check string) "SYN_RCVD: SYN repeat" "SYN+ACK(?,?,0)"
    (out_after [ Tcp_alphabet.Syn ] Tcp_alphabet.Syn);
  (* ESTABLISHED: in-window SYN gets a challenge ACK (Linux). *)
  Alcotest.(check string) "ESTABLISHED: challenge ack" "ACK(?,?,0)"
    (out_after Tcp_alphabet.[ Syn; Ack ] Tcp_alphabet.Syn);
  (* Full close then anything: refused. *)
  Alcotest.(check string) "CLOSED: SYN refused" "ACK+RST(?,?,0)"
    (out_after Tcp_alphabet.[ Syn; Ack; Fin_ack; Ack; Ack ] Tcp_alphabet.Syn)

let learning_survives_loss () =
  (* With 3% loss, single executions disagree; the §5 repetition check
     (majority answers) restores a deterministic view and learning
     converges to the same model as the reliable channel. *)
  let reliable_model = learn_tcp () in
  let lossy =
    Tcp_adapter.sul ~network:(Prognosis_sul.Network.lossy 0.03) ~seed:7L ()
  in
  let mq =
    Prognosis_learner.Oracle.of_fun
      (Prognosis_sul.Nondet.modal_oracle ~runs:15 lossy)
  in
  let result =
    Prognosis_learner.Learn.run_mq ~inputs:Tcp_alphabet.all ~mq
      ~eq:(Prognosis_learner.Eq_oracle.w_method ~extra_states:1 ())
      ()
  in
  Alcotest.(check (option (list pass))) "same model as reliable channel" None
    (Mealy.equivalent result.Learn.model reliable_model)

let lossy_network_is_nondeterministic () =
  (* With 30% loss the SUL stops answering deterministically; the
     nondeterminism check must notice. *)
  let sul =
    Tcp_adapter.sul ~network:(Prognosis_sul.Network.lossy 0.3) ~seed:21L ()
  in
  let word = Tcp_alphabet.[ Syn; Ack; Ack_psh ] in
  match Nondet.query { Nondet.default with max_runs = 40 } sul word with
  | Nondet.Nondeterministic _ -> ()
  | Nondet.Deterministic _ ->
      (* Possible but vanishingly unlikely at this loss rate; treat as
         failure so a silently reliable channel is caught. *)
      Alcotest.fail "expected nondeterminism under 30% loss"

let () =
  Alcotest.run "tcp"
    [
      ( "wire",
        [
          Alcotest.test_case "roundtrip" `Quick roundtrip;
          Alcotest.test_case "checksum corruption" `Quick checksum_detects_corruption;
          Alcotest.test_case "short segment" `Quick short_segment_rejected;
          Alcotest.test_case "flags roundtrip" `Quick flags_roundtrip;
          Alcotest.test_case "json concrete alphabet" `Quick json_concrete_alphabet;
          Alcotest.test_case "options roundtrip" `Quick options_roundtrip;
          Alcotest.test_case "mss negotiation" `Quick syn_negotiates_mss;
          Alcotest.test_case "seq wrap" `Quick seq_add_wraps;
        ] );
      ( "alphabet",
        [
          Alcotest.test_case "size" `Quick alphabet_size;
          Alcotest.test_case "abstraction" `Quick abstract_flags;
        ] );
      ( "server",
        [
          Alcotest.test_case "handshake" `Quick server_handshake;
          Alcotest.test_case "stray ack refused" `Quick server_refuses_stray_ack;
          Alcotest.test_case "data acked" `Quick server_data_acked;
          Alcotest.test_case "full close" `Quick server_full_close;
          Alcotest.test_case "rst aborts" `Quick server_rst_aborts;
          Alcotest.test_case "challenge ack" `Quick server_challenge_ack_on_syn;
          Alcotest.test_case "reset" `Quick server_reset_restores;
          Alcotest.test_case "bad checksum dropped" `Quick server_drops_bad_checksum;
        ] );
      ( "adapter",
        [
          Alcotest.test_case "handshake" `Quick adapter_handshake;
          Alcotest.test_case "data exchange" `Quick adapter_data_exchange;
          Alcotest.test_case "deterministic" `Quick adapter_deterministic;
          Alcotest.test_case "oracle table" `Quick adapter_oracle_table_records;
          Alcotest.test_case "lossy nondeterminism" `Quick lossy_network_is_nondeterministic;
        ] );
      ( "learning",
        [
          Alcotest.test_case "model shape" `Slow tcp_model_shape;
          Alcotest.test_case "handshake path" `Slow tcp_model_handshake_path;
          Alcotest.test_case "agrees with sul" `Slow tcp_model_agrees_with_sul;
          Alcotest.test_case "appendix spot checks" `Slow tcp_model_appendix_spot_checks;
          Alcotest.test_case "learning under loss" `Slow learning_survives_loss;
        ] );
    ]
