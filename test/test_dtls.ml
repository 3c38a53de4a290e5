module Mealy = Prognosis_automata.Mealy
module Sul = Prognosis_sul.Sul
module Rng = Prognosis_sul.Rng
module Nondet = Prognosis_sul.Nondet
module Learn = Prognosis_learner.Learn
module Eq_oracle = Prognosis_learner.Eq_oracle
open Prognosis_dtls

(* --- wire codecs --- *)

let handshake_roundtrip () =
  let h =
    {
      Dtls_wire.msg_type = Dtls_wire.Client_hello;
      message_seq = 3;
      body = "CR:abcd;COOKIE:";
    }
  in
  match Dtls_wire.decode_handshake (Dtls_wire.encode_handshake h) with
  | Error e -> Alcotest.fail e
  | Ok h' ->
      Alcotest.(check bool) "type" true (h'.Dtls_wire.msg_type = Dtls_wire.Client_hello);
      Alcotest.(check int) "seq" 3 h'.Dtls_wire.message_seq;
      Alcotest.(check string) "body" "CR:abcd;COOKIE:" h'.Dtls_wire.body

let handshake_rejects_garbage () =
  (match Dtls_wire.decode_handshake "xy" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "short message accepted");
  match Dtls_wire.decode_handshake (String.make 12 '\xFF') with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown type accepted"

let record_roundtrip_plaintext () =
  let r =
    { Dtls_wire.content = Dtls_wire.Handshake; epoch = 0; seq = 42; payload = "data" }
  in
  match Dtls_wire.decode_record (Dtls_wire.encode_record r) with
  | Error e -> Alcotest.fail e
  | Ok r' ->
      Alcotest.(check int) "epoch" 0 r'.Dtls_wire.epoch;
      Alcotest.(check int) "seq" 42 r'.Dtls_wire.seq;
      Alcotest.(check string) "payload" "data" r'.Dtls_wire.payload

let record_roundtrip_protected () =
  let c = Dtls_crypto.create () in
  Dtls_crypto.derive_master c ~client_random:"cr" ~server_random:"sr"
    ~premaster:"pms";
  let keys = (c, Dtls_crypto.Client_write) in
  let r =
    { Dtls_wire.content = Dtls_wire.Application_data; epoch = 1; seq = 7; payload = "secret" }
  in
  let wire = Dtls_wire.encode_record ~protect:keys r in
  (* Ciphertext differs from plaintext on the wire. *)
  Alcotest.(check bool) "protected" true
    (String.length wire > 13 + 6
    && String.sub wire 13 6 <> "secret");
  match Dtls_wire.decode_record ~unprotect:keys wire with
  | Error e -> Alcotest.fail e
  | Ok r' -> Alcotest.(check string) "payload" "secret" r'.Dtls_wire.payload

let record_wrong_keys_fail () =
  let c = Dtls_crypto.create () in
  Dtls_crypto.derive_master c ~client_random:"cr" ~server_random:"sr" ~premaster:"pms";
  let other = Dtls_crypto.create () in
  Dtls_crypto.derive_master other ~client_random:"cr" ~server_random:"XX" ~premaster:"pms";
  let wire =
    Dtls_wire.encode_record ~protect:(c, Dtls_crypto.Client_write)
      { Dtls_wire.content = Dtls_wire.Application_data; epoch = 1; seq = 0; payload = "x" }
  in
  match
    Dtls_wire.decode_record ~unprotect:(other, Dtls_crypto.Client_write) wire
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "wrong keys must not decode"

let crypto_directions_differ () =
  let c = Dtls_crypto.create () in
  Dtls_crypto.derive_master c ~client_random:"a" ~server_random:"b" ~premaster:"c";
  Alcotest.(check bool) "verify data per direction" true
    (Dtls_crypto.verify_data c Dtls_crypto.Client_write
    <> Dtls_crypto.verify_data c Dtls_crypto.Server_write)

(* --- wire transcript known answer --- *)

(* Drives a client and a server through the public calls only
   (concretize, handle_datagram, absorb) and records every datagram in
   order as its direction and [Sim_crypto.hash]. Pinning the count, the
   total bytes and every hash fixes the traffic byte for byte: record
   headers, handshake messages, epoch-1 ciphertexts and tags. *)
let transcript seed word =
  let rng = Rng.create seed in
  let server = Dtls_server.create (Rng.split rng) in
  let client = Dtls_client.create (Rng.split rng) in
  let datagrams = ref [] in
  let record dir wire = datagrams := (dir, wire) :: !datagrams in
  List.iter
    (fun symbol ->
      match Dtls_client.concretize client symbol with
      | None -> ()
      | Some (wire, _) ->
          record "c" wire;
          List.iter
            (fun wire ->
              record "s" wire;
              ignore (Dtls_client.absorb client wire))
            (Dtls_server.handle_datagram server wire))
    word;
  let datagrams = List.rev !datagrams in
  ( List.length datagrams,
    List.fold_left (fun n (_, w) -> n + String.length w) 0 datagrams,
    String.concat " "
      (List.map
         (fun (dir, w) -> Printf.sprintf "%s%x" dir (Prognosis_sul.Sim_crypto.hash w))
         datagrams) )

let wire_transcript_known_answer () =
  let count, bytes, hashes =
    transcript 29L
      Dtls_alphabet.
        [
          Client_hello; Client_hello; Client_key_exchange; Change_cipher_spec;
          Finished; App_data; App_data; Alert_close;
        ]
  in
  Alcotest.(check int) "datagrams" 17 count;
  Alcotest.(check int) "bytes" 581 bytes;
  Alcotest.(check string) "hashes"
    "c3c3d77ca19fb7b16 s33dc370dccda582e c725bcc6e8d19bc16 s5de7b765ded83b0e \
     s3eb26b2ed8174e34 s6882e67e390c35fa c2bbe1b03282de058 c647dd3ff76e261ce \
     c63047757bc031fd5 s292bc22370d5421d s23cf568bfb4cf4ec c30bfb20bb7e6d54 \
     s454ff2c13146a0fa c646cfc29a2b38e69 s2f7f850a3117e775 c14f809b82aa0663b \
     s10b2a607db716e86"
    hashes

(* --- full handshake through the adapter --- *)

let run_word seed word =
  let sul = Dtls_adapter.sul ~seed () in
  List.map Dtls_alphabet.output_to_string (Sul.query sul word)

let full_handshake () =
  let out =
    run_word 3L
      Dtls_alphabet.
        [
          Client_hello;
          Client_hello;
          Client_key_exchange;
          Change_cipher_spec;
          Finished;
          App_data;
          Alert_close;
        ]
  in
  Alcotest.(check (list string)) "lifecycle"
    [
      "{HELLO_VERIFY_REQUEST}";
      "{SERVER_HELLO,CERTIFICATE,SERVER_HELLO_DONE}";
      "NIL";
      "NIL";
      "{CCS,FINISHED}";
      "{APP_DATA}";
      "{ALERT}";
    ]
    out

let echo_service () =
  let adapter, client = Dtls_adapter.create ~seed:5L () in
  let _ =
    Prognosis_sul.Adapter.query adapter
      Dtls_alphabet.
        [
          Client_hello; Client_hello; Client_key_exchange; Change_cipher_spec;
          Finished; App_data;
        ]
  in
  Alcotest.(check bool) "handshake complete" true (Dtls_client.handshake_complete client);
  Alcotest.(check string) "uppercased echo" "PING" (Dtls_client.echoed client)

let finished_before_keys_is_nil () =
  let out = run_word 7L Dtls_alphabet.[ Finished; App_data ] in
  Alcotest.(check (list string)) "unrealizable" [ "NIL"; "NIL" ] out

let early_ccs_fatal_when_strict () =
  let out = run_word 9L Dtls_alphabet.[ Client_hello; Client_hello; Change_cipher_spec ] in
  Alcotest.(check string) "fatal alert" "{ALERT}" (List.nth out 2)

let early_ccs_ignored_when_lenient () =
  let sul =
    Dtls_adapter.sul
      ~server_config:{ Dtls_server.require_cookie = true; strict_ccs = false }
      ~seed:9L ()
  in
  let out =
    List.map Dtls_alphabet.output_to_string
      (Sul.query sul Dtls_alphabet.[ Client_hello; Client_hello; Change_cipher_spec ])
  in
  Alcotest.(check string) "silently dropped" "NIL" (List.nth out 2)

let no_cookie_config_skips_hvr () =
  let sul =
    Dtls_adapter.sul
      ~server_config:{ Dtls_server.require_cookie = false; strict_ccs = true }
      ~seed:11L ()
  in
  let out =
    List.map Dtls_alphabet.output_to_string (Sul.query sul [ Dtls_alphabet.Client_hello ])
  in
  Alcotest.(check (list string)) "direct flight"
    [ "{SERVER_HELLO,CERTIFICATE,SERVER_HELLO_DONE}" ]
    out

let deterministic () =
  let sul = Dtls_adapter.sul ~seed:13L () in
  let words =
    Dtls_alphabet.
      [
        [ Client_hello; Client_hello; Client_key_exchange; Change_cipher_spec; Finished ];
        [ Client_key_exchange; Client_hello; App_data ];
        [ Client_hello; Alert_close; Client_hello ];
        [ Change_cipher_spec; Finished; Client_hello ];
      ]
  in
  List.iter
    (fun w ->
      match Nondet.query Nondet.default sul w with
      | Nondet.Deterministic _ -> ()
      | Nondet.Nondeterministic _ -> Alcotest.fail "DTLS SUL must be deterministic")
    words

(* --- learning --- *)

let scenarios =
  Dtls_alphabet.
    [
      [ Client_hello; Client_hello; Client_key_exchange; Change_cipher_spec; Finished ];
      [
        Client_hello; Client_hello; Client_key_exchange; Change_cipher_spec;
        Finished; App_data; Alert_close; App_data;
      ];
      [ Client_hello; Client_key_exchange; Change_cipher_spec; Finished; App_data ];
    ]

let learn_dtls ?server_config seed =
  let sul = Dtls_adapter.sul ?server_config ~seed () in
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
    Prognosis.Pipeline.learn ~subject:"dtls" ~seed:0L ~algorithm:Learn.Ttt_tree
      ~inputs:Dtls_alphabet.all ~factory:(fun ~seed:_ ~workers:_ _ -> sul) ~eq ()
  with
  | Ok (model, _) -> model
  | Error _ -> Alcotest.fail "nondeterministic SUL"

let learned_model_shape () =
  let m = learn_dtls 17L in
  Alcotest.(check bool)
    (Printf.sprintf "states %d in [5..14]" (Mealy.size m))
    true
    (Mealy.size m >= 5 && Mealy.size m <= 14);
  (* The model replays the full lifecycle. *)
  let out =
    Mealy.run m
      Dtls_alphabet.
        [ Client_hello; Client_hello; Client_key_exchange; Change_cipher_spec; Finished ]
  in
  Alcotest.(check string) "finish flight" "{CCS,FINISHED}"
    (Dtls_alphabet.output_to_string (List.nth out 4))

let cookie_configs_learn_different_models () =
  let with_cookie = learn_dtls 19L in
  let without =
    learn_dtls ~server_config:{ Dtls_server.require_cookie = false; strict_ccs = true } 23L
  in
  Alcotest.(check bool) "different models" false
    (Mealy.equivalent with_cookie without = None);
  Alcotest.(check bool) "cookie model is larger" true
    (Mealy.size with_cookie > Mealy.size without)

let seed_independent_models () =
  let a = learn_dtls 29L and b = learn_dtls 31L in
  Alcotest.(check bool) "equivalent" true
    (Mealy.equivalent a b = None)

let property_no_appdata_before_finished () =
  let m = learn_dtls 37L in
  let prop =
    Prognosis_analysis.Safety.after_always
      "no APP_DATA before the server FINISHED"
      ~trigger:(fun ((_ : Dtls_alphabet.symbol), _) -> true)
      ~then_:(fun (_, _) -> true)
  in
  ignore prop;
  (* Stronger direct check: in the learned model, every transition that
     outputs APP_DATA is preceded by one outputting FINISHED on every
     path from the initial state. Approximate with the monitor: APP_DATA
     output before any FINISHED output violates. *)
  let seen_finished o = List.mem Dtls_alphabet.A_finished o in
  let has_appdata o = List.mem Dtls_alphabet.A_app_data o in
  let monitor =
    Prognosis_automata.Dfa.make ~size:3 ~initial:0
      ~delta:(fun s (_, o) ->
        match s with
        | 0 -> if has_appdata o then 2 else if seen_finished o then 1 else 0
        | s -> s)
      ~accepting:(fun s -> s <> 2)
  in
  let prop = Prognosis_analysis.Safety.of_monitor "appdata only after finished" monitor in
  Alcotest.(check (option (list pass))) "holds" None
    (Prognosis_analysis.Safety.check prop m)

let () =
  Alcotest.run "dtls"
    [
      ( "wire",
        [
          Alcotest.test_case "handshake roundtrip" `Quick handshake_roundtrip;
          Alcotest.test_case "handshake garbage" `Quick handshake_rejects_garbage;
          Alcotest.test_case "record plaintext" `Quick record_roundtrip_plaintext;
          Alcotest.test_case "record protected" `Quick record_roundtrip_protected;
          Alcotest.test_case "wrong keys" `Quick record_wrong_keys_fail;
          Alcotest.test_case "directions differ" `Quick crypto_directions_differ;
          Alcotest.test_case "wire transcript known answer" `Quick
            wire_transcript_known_answer;
        ] );
      ( "connection",
        [
          Alcotest.test_case "full handshake" `Quick full_handshake;
          Alcotest.test_case "echo service" `Quick echo_service;
          Alcotest.test_case "finished before keys" `Quick finished_before_keys_is_nil;
          Alcotest.test_case "early ccs strict" `Quick early_ccs_fatal_when_strict;
          Alcotest.test_case "early ccs lenient" `Quick early_ccs_ignored_when_lenient;
          Alcotest.test_case "no-cookie config" `Quick no_cookie_config_skips_hvr;
          Alcotest.test_case "deterministic" `Quick deterministic;
        ] );
      ( "learning",
        [
          Alcotest.test_case "model shape" `Slow learned_model_shape;
          Alcotest.test_case "cookie configs differ" `Slow cookie_configs_learn_different_models;
          Alcotest.test_case "seed independent" `Slow seed_independent_models;
          Alcotest.test_case "appdata after finished" `Slow property_no_appdata_before_finished;
        ] );
    ]
