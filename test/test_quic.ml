module Mealy = Prognosis_automata.Mealy
module Sul = Prognosis_sul.Sul
module Rng = Prognosis_sul.Rng
module Nondet = Prognosis_sul.Nondet
module Learn = Prognosis_learner.Learn
module Eq_oracle = Prognosis_learner.Eq_oracle
open Prognosis_quic

(* --- varint --- *)

let varint_roundtrip () =
  List.iter
    (fun v ->
      let s = Varint.encode_to_string v in
      let v', off = Varint.decode s 0 in
      Alcotest.(check int) (Printf.sprintf "value %d" v) v v';
      Alcotest.(check int) "consumed all" (String.length s) off)
    [ 0; 1; 63; 64; 16383; 16384; 1073741823; 1073741824; Varint.max_value ]

let varint_lengths () =
  Alcotest.(check int) "1 byte" 1 (Varint.encoded_length 63);
  Alcotest.(check int) "2 bytes" 2 (Varint.encoded_length 64);
  Alcotest.(check int) "4 bytes" 4 (Varint.encoded_length 16384);
  Alcotest.(check int) "8 bytes" 8 (Varint.encoded_length (1 lsl 30))

let varint_rejects () =
  Alcotest.check_raises "negative" (Invalid_argument "Varint: value out of range")
    (fun () -> ignore (Varint.encoded_length (-1)))

(* --- crypto --- *)

let crypto_seal_open () =
  let c = Quic_crypto.create () in
  Quic_crypto.install_initial c ~dcid:"12345678";
  match
    Quic_crypto.seal c Quic_crypto.Initial_level Quic_crypto.Client_to_server
      ~pn:0 ~header:"hdr" "hello quic"
  with
  | None -> Alcotest.fail "seal failed"
  | Some sealed -> (
      Alcotest.(check bool) "ciphertext differs" true
        (String.sub sealed 0 10 <> "hello quic");
      match
        Quic_crypto.open_ c Quic_crypto.Initial_level Quic_crypto.Client_to_server
          ~pn:0 ~header:"hdr" sealed
      with
      | Some plain -> Alcotest.(check string) "roundtrip" "hello quic" plain
      | None -> Alcotest.fail "open failed")

let crypto_detects_tamper () =
  let c = Quic_crypto.create () in
  Quic_crypto.install_initial c ~dcid:"12345678";
  match
    Quic_crypto.seal c Quic_crypto.Initial_level Quic_crypto.Client_to_server
      ~pn:0 ~header:"hdr" "payload"
  with
  | None -> Alcotest.fail "seal failed"
  | Some sealed ->
      let tampered =
        String.mapi (fun i ch -> if i = 0 then Char.chr (Char.code ch lxor 1) else ch) sealed
      in
      Alcotest.(check bool) "tamper rejected" true
        (Quic_crypto.open_ c Quic_crypto.Initial_level Quic_crypto.Client_to_server
           ~pn:0 ~header:"hdr" tampered
        = None)

let crypto_level_isolation () =
  let c = Quic_crypto.create () in
  Quic_crypto.install_initial c ~dcid:"12345678";
  Alcotest.(check bool) "handshake missing" true
    (Quic_crypto.seal c Quic_crypto.Handshake_level Quic_crypto.Client_to_server
       ~pn:0 ~header:"h" "x"
    = None);
  Quic_crypto.install_handshake c ~client_random:"cr" ~server_random:"sr";
  Alcotest.(check bool) "handshake available" true
    (Quic_crypto.has_level c Quic_crypto.Handshake_level);
  Alcotest.(check bool) "application available" true
    (Quic_crypto.has_level c Quic_crypto.Application_level);
  Quic_crypto.drop_level c Quic_crypto.Initial_level;
  Alcotest.(check bool) "initial dropped" false
    (Quic_crypto.has_level c Quic_crypto.Initial_level)

let crypto_direction_isolation () =
  let c = Quic_crypto.create () in
  Quic_crypto.install_initial c ~dcid:"12345678";
  match
    Quic_crypto.seal c Quic_crypto.Initial_level Quic_crypto.Client_to_server
      ~pn:0 ~header:"h" "data"
  with
  | None -> Alcotest.fail "seal failed"
  | Some sealed ->
      Alcotest.(check bool) "wrong direction rejected" true
        (Quic_crypto.open_ c Quic_crypto.Initial_level Quic_crypto.Server_to_client
           ~pn:0 ~header:"h" sealed
        = None)

(* Known answers: ciphertexts pinned from the reference run, so any
   change to the underlying primitive that alters QUIC bytes shows
   here (the tail of the plaintext is not a whole 8-byte lane). *)
let crypto_known_answer () =
  let hex s =
    String.concat ""
      (List.init (String.length s) (fun i -> Printf.sprintf "%02x" (Char.code s.[i])))
  in
  let c = Quic_crypto.create () in
  Quic_crypto.install_initial c ~dcid:"\x83\x94\xc8\xf0\x3e\x51\x57\x08";
  Quic_crypto.install_handshake c ~client_random:"c0ffee0123456789"
    ~server_random:"5e4e4e4e4e4e4e4e";
  let plaintext = "known-answer plaintext: 8-byte lanes plus a 5-byte tail" in
  let sealed level direction pn =
    match
      Quic_crypto.seal c level direction ~pn ~header:"\xc3\x00\x00\x00\x01hdr"
        plaintext
    with
    | Some s -> hex s
    | None -> Alcotest.fail "seal failed"
  in
  Alcotest.(check string) "initial"
    "d0512b3e3e0eb86552679dd0a8065c3999149c016a1ff977c5ab21669d55fa6a2b5b52498444266c64b3be98391a3e4377837d2543ee5578c04d2a9bdc797e"
    (sealed Quic_crypto.Initial_level Quic_crypto.Client_to_server 0);
  Alcotest.(check string) "handshake"
    "0eb964c7b9c5e335238f59568cb471038e3b45023a714548e4f5aaf0df6513157d0da7035181ee1ad1ce49e99c6ea460c5b41e0e3bde733a666f55be586c20"
    (sealed Quic_crypto.Handshake_level Quic_crypto.Server_to_client 7);
  Quic_crypto.update_application c;
  Alcotest.(check string) "application after key update"
    "94ad73363894000799131a97ab72655d3533465885a8cf7398ac015c72a8600405288aeff5b1c50e692db5ef75d36724422c7ab2a6383e64c3f5c48689b323"
    (sealed Quic_crypto.Application_level Quic_crypto.Client_to_server 0x1234567);
  (* A lane whose top bit is set: the body is the reference run's, the
     tag is not — the reference fold dropped that bit, so flipping it
     went undetected (its tag was ...51961a4385e70b44). *)
  let c = Quic_crypto.create () in
  Quic_crypto.install_initial c ~dcid:"\x83\x94\xc8\xf0\x3e\x51\x57\x08";
  Alcotest.(check (option string)) "top-bit lane"
    (Some "95c44b9830bbe3c92dd0c70961dd272091a871fe")
    (Option.map hex
       (Quic_crypto.seal c Quic_crypto.Initial_level
          Quic_crypto.Client_to_server ~pn:1 ~header:"hdr"
          "\x00\x01\x02\x03\x04\x05\x06\xfftail"));
  Alcotest.(check string) "stateless reset token" "5037b90a2591fec97fef43982391212e"
    (hex (Quic_crypto.stateless_reset_token ~dcid:"abcdefgh"));
  Alcotest.(check int64) "hash64" 0xf0a1923b076d83b8L (Quic_crypto.hash64 "prognosis")

(* --- frames --- *)

let all_frames =
  Frame.
    [
      Padding 3;
      Ping;
      Ack { largest = 7; delay = 0; first_range = 2 };
      Reset_stream { stream_id = 4; error = 1; final_size = 100 };
      Stop_sending { stream_id = 4; error = 2 };
      Crypto { offset = 10; data = "crypto-data" };
      New_token "token-bytes";
      Stream { id = 0; offset = 5; data = "hello"; fin = true };
      Max_data 4096;
      Max_stream_data { stream_id = 0; max = 2048 };
      Max_streams { bidi = true; max = 10 };
      Data_blocked 4096;
      Stream_data_blocked { stream_id = 0; max = 2048 };
      Streams_blocked { bidi = false; max = 5 };
      New_connection_id
        { seq = 1; retire_prior = 0; cid = "abcdefgh"; reset_token = String.make 16 't' };
      Retire_connection_id 0;
      Path_challenge "12345678";
      Path_response "87654321";
      Connection_close { error = 10; frame_type = 0; reason = "bye"; app = false };
      Handshake_done;
    ]

let frame_roundtrip () =
  let encoded = Frame.encode_all all_frames in
  match Frame.decode_all encoded with
  | Error e -> Alcotest.fail e
  | Ok decoded ->
      Alcotest.(check int) "frame count" (List.length all_frames) (List.length decoded);
      List.iter2
        (fun expected actual ->
          Alcotest.(check bool)
            (Fmt.str "frame %a" Frame.pp expected)
            true (expected = actual))
        all_frames decoded

let frame_kinds_cover_all_20 () =
  Alcotest.(check int) "20 kinds" 20 (List.length Frame.all_kinds);
  let kinds = List.sort_uniq compare (List.map Frame.kind all_frames) in
  Alcotest.(check int) "fixture covers all kinds" 20 (List.length kinds)

let frame_bad_input () =
  match Frame.decode_all "\xFF\xFF" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage must not decode"

let frame_ack_eliciting () =
  Alcotest.(check bool) "ping elicits" true (Frame.is_ack_eliciting Frame.Ping);
  Alcotest.(check bool) "ack does not" false
    (Frame.is_ack_eliciting (Frame.Ack { largest = 0; delay = 0; first_range = 0 }))

(* --- packets --- *)

let fresh_crypto () =
  let c = Quic_crypto.create () in
  Quic_crypto.install_initial c ~dcid:"dcid-123";
  Quic_crypto.install_handshake c ~client_random:"cr" ~server_random:"sr";
  c

let packet_roundtrip ptype =
  let crypto = fresh_crypto () in
  let p =
    Quic_packet.make ptype ~dcid:"dcid-123" ~scid:"scid-456" ~pn:3
      ~frames:[ Frame.Ping; Frame.Crypto { offset = 0; data = "CH" } ]
  in
  let p =
    if ptype = Quic_packet.Short then { p with Quic_packet.dcid = "8bytecid" } else p
  in
  match Quic_packet.encode ~crypto ~sender:Quic_crypto.Client_to_server p with
  | None -> Alcotest.fail "encode failed"
  | Some wire -> (
      match
        Quic_packet.decode ~crypto ~sender:Quic_crypto.Client_to_server
          ~reset_tokens:[] wire
      with
      | Quic_packet.Decoded p' ->
          Alcotest.(check bool) "ptype" true (p'.Quic_packet.ptype = ptype);
          Alcotest.(check int) "pn" 3 p'.Quic_packet.pn;
          Alcotest.(check int) "frames" 2 (List.length p'.Quic_packet.frames)
      | Quic_packet.Reset_detected _ -> Alcotest.fail "not a reset"
      | Quic_packet.Undecodable e -> Alcotest.fail e)

let packet_initial_roundtrip () = packet_roundtrip Quic_packet.Initial
let packet_handshake_roundtrip () = packet_roundtrip Quic_packet.Handshake
let packet_short_roundtrip () = packet_roundtrip Quic_packet.Short

let packet_retry_roundtrip () =
  let crypto = fresh_crypto () in
  let p =
    Quic_packet.make Quic_packet.Retry ~dcid:"dcid-123" ~scid:"scid-456"
      ~token:"retry-token"
  in
  match Quic_packet.encode ~crypto ~sender:Quic_crypto.Server_to_client p with
  | None -> Alcotest.fail "encode failed"
  | Some wire -> (
      match
        Quic_packet.decode ~crypto ~sender:Quic_crypto.Server_to_client
          ~reset_tokens:[] wire
      with
      | Quic_packet.Decoded p' ->
          Alcotest.(check bool) "retry" true (p'.Quic_packet.ptype = Quic_packet.Retry);
          Alcotest.(check string) "token" "retry-token" p'.Quic_packet.token
      | _ -> Alcotest.fail "expected retry")

let packet_wrong_keys_undecodable () =
  let crypto = fresh_crypto () in
  let other = Quic_crypto.create () in
  Quic_crypto.install_initial other ~dcid:"different";
  let p =
    Quic_packet.make Quic_packet.Initial ~dcid:"dcid-123" ~scid:"s" ~pn:0
      ~frames:[ Frame.Ping ]
  in
  match Quic_packet.encode ~crypto ~sender:Quic_crypto.Client_to_server p with
  | None -> Alcotest.fail "encode failed"
  | Some wire -> (
      match
        Quic_packet.decode ~crypto:other ~sender:Quic_crypto.Client_to_server
          ~reset_tokens:[] wire
      with
      | Quic_packet.Undecodable _ -> ()
      | _ -> Alcotest.fail "wrong keys must not decode")

let stateless_reset_detection () =
  let rng = Rng.create 5L in
  let token = Quic_crypto.stateless_reset_token ~dcid:"somecid1" in
  let wire = Quic_packet.encode_stateless_reset ~rand:(Rng.bytes rng) ~token in
  let crypto = fresh_crypto () in
  (match
     Quic_packet.decode ~crypto ~sender:Quic_crypto.Server_to_client
       ~reset_tokens:[ token ] wire
   with
  | Quic_packet.Reset_detected t -> Alcotest.(check string) "token" token t
  | _ -> Alcotest.fail "reset not detected");
  match
    Quic_packet.decode ~crypto ~sender:Quic_crypto.Server_to_client
      ~reset_tokens:[ "wrong-token-0123" ] wire
  with
  | Quic_packet.Reset_detected _ -> Alcotest.fail "wrong token matched"
  | _ -> ()

(* --- server + client integration --- *)

let make_pair ?profile ?client_config seed =
  let rng = Rng.create seed in
  let server = Quic_server.create ?profile (Rng.split rng) in
  let client = Quic_client.create ?config:client_config (Rng.split rng) in
  (server, client)

let run_symbol server client symbol =
  match Quic_client.concretize client symbol with
  | None -> []
  | Some (wire, _) ->
      let responses =
        Quic_server.handle_datagram server ~port:(Quic_client.port client) wire
      in
      List.map (Quic_client.absorb client) responses

let abstract_of absorbed =
  List.filter_map
    (function
      | Quic_client.Packet p ->
          Some (Quic_alphabet.apacket_to_string (Quic_alphabet.abstract_packet p))
      | Quic_client.Reset -> Some "RESET"
      | Quic_client.Junk _ -> None)
    absorbed

let handshake_flow () =
  let server, client = make_pair 11L in
  let r1 = abstract_of (run_symbol server client Quic_alphabet.Initial_crypto) in
  Alcotest.(check (list string)) "server flight"
    [
      "INITIAL(?,?)[ACK,CRYPTO]"; "HANDSHAKE(?,?)[CRYPTO]"; "HANDSHAKE(?,?)[CRYPTO]";
    ]
    r1;
  let r2 =
    abstract_of (run_symbol server client Quic_alphabet.Handshake_ack_crypto)
  in
  Alcotest.(check (list string)) "handshake done"
    [ "HANDSHAKE(?,?)[ACK]"; "SHORT(?,?)[HANDSHAKE_DONE]" ]
    r2;
  Alcotest.(check bool) "client sees completion" true
    (Quic_client.handshake_complete client);
  Alcotest.(check string) "server confirmed" "confirmed" (Quic_server.phase_name server)

let data_exchange_with_flow_control () =
  let server, client = make_pair 13L in
  let _ = run_symbol server client Quic_alphabet.Initial_crypto in
  let _ = run_symbol server client Quic_alphabet.Handshake_ack_crypto in
  (* Request: server can only send 50 of 80 bytes, then blocks. *)
  let r3 = abstract_of (run_symbol server client Quic_alphabet.Short_ack_stream) in
  Alcotest.(check (list string)) "blocked response"
    [ "SHORT(?,?)[ACK,STREAM,STREAM_DATA_BLOCKED]" ]
    r3;
  Alcotest.(check int) "50 bytes delivered" 50 (Quic_client.received_stream_bytes client);
  Alcotest.(check bool) "no flow violation" false (Quic_client.flow_violation client);
  (* Raise the limits: the remaining 30 bytes flow. *)
  let r4 = abstract_of (run_symbol server client Quic_alphabet.Short_ack_flow) in
  Alcotest.(check (list string)) "drained" [ "SHORT(?,?)[ACK,STREAM]" ] r4;
  Alcotest.(check int) "80 bytes total" 80 (Quic_client.received_stream_bytes client)

let compliant_sdb_carries_offset () =
  let server, client = make_pair 17L in
  let _ = run_symbol server client Quic_alphabet.Initial_crypto in
  let _ = run_symbol server client Quic_alphabet.Handshake_ack_crypto in
  let _ = run_symbol server client Quic_alphabet.Short_ack_stream in
  Alcotest.(check (list int)) "offset 50" [ 50 ]
    (Quic_client.stream_data_blocked_values client)

let issue4_sdb_constant_zero () =
  let server, client = make_pair ~profile:Quic_profile.google_like 17L in
  (* google-like demands retry first. *)
  let _ = run_symbol server client Quic_alphabet.Initial_crypto in
  let _ = run_symbol server client Quic_alphabet.Initial_crypto in
  let _ = run_symbol server client Quic_alphabet.Handshake_ack_crypto in
  let _ = run_symbol server client Quic_alphabet.Short_ack_stream in
  Alcotest.(check (list int)) "constant zero (Issue 4)" [ 0 ]
    (Quic_client.stream_data_blocked_values client)

let handshake_done_from_client_closes () =
  let server, client = make_pair 19L in
  let _ = run_symbol server client Quic_alphabet.Initial_crypto in
  let r = abstract_of (run_symbol server client Quic_alphabet.Handshake_ack_hsd) in
  Alcotest.(check (list string)) "violation close"
    [ "HANDSHAKE(?,?)[CONNECTION_CLOSE]" ]
    r;
  Alcotest.(check string) "closing" "closing" (Quic_server.phase_name server);
  Alcotest.(check bool) "client knows" true (Quic_client.connection_closed client)

let reset_after_close_compliant () =
  let server, client = make_pair 23L in
  let _ = run_symbol server client Quic_alphabet.Initial_crypto in
  let _ = run_symbol server client Quic_alphabet.Handshake_ack_hsd in
  (* Every subsequent packet gets a stateless reset (prob 1.0). *)
  for _ = 1 to 5 do
    let r = abstract_of (run_symbol server client Quic_alphabet.Short_ack_stream) in
    Alcotest.(check (list string)) "reset" [ "RESET" ] r
  done

let retry_roundtrip_establishes () =
  let server, client = make_pair ~profile:Quic_profile.google_like 29L in
  let r1 = abstract_of (run_symbol server client Quic_alphabet.Initial_crypto) in
  Alcotest.(check (list string)) "retry demanded" [ "RETRY(?,?)[]" ] r1;
  (* Token echoed from the same port: handshake proceeds. *)
  let r2 = abstract_of (run_symbol server client Quic_alphabet.Initial_crypto) in
  Alcotest.(check (list string)) "handshake flight after retry"
    [
      "INITIAL(?,?)[ACK,CRYPTO]"; "HANDSHAKE(?,?)[CRYPTO]"; "HANDSHAKE(?,?)[CRYPTO]";
    ]
    r2

let issue3_retry_port_bug_blocks_handshake () =
  let server, client =
    make_pair ~profile:Quic_profile.google_like
      ~client_config:{ Quic_client.retry_port_bug = true; pns_reset_on_retry = true }
      31L
  in
  let _ = run_symbol server client Quic_alphabet.Initial_crypto in
  (* The token comes back from a different port: silently dropped,
     connection establishment impossible (Issue 3). *)
  let r2 = abstract_of (run_symbol server client Quic_alphabet.Initial_crypto) in
  Alcotest.(check (list string)) "validation fails" [] r2;
  let r3 = abstract_of (run_symbol server client Quic_alphabet.Initial_crypto) in
  Alcotest.(check (list string)) "still failing" [] r3

let issue1_strict_profile_aborts_on_pns_reset () =
  let server, client = make_pair ~profile:Quic_profile.strict_retry 37L in
  let _ = run_symbol server client Quic_alphabet.Initial_crypto in
  let r2 = abstract_of (run_symbol server client Quic_alphabet.Initial_crypto) in
  Alcotest.(check (list string)) "aborted (Issue 1)"
    [ "INITIAL(?,?)[CONNECTION_CLOSE]" ]
    r2

let ncid_sequence_numbers () =
  let server, client = make_pair ~profile:Quic_profile.ncid_buggy 41L in
  let _ = run_symbol server client Quic_alphabet.Initial_crypto in
  let _ = run_symbol server client Quic_alphabet.Handshake_ack_crypto in
  (* Buggy stride 2: sequence numbers 1, 3 violate the +1 property. *)
  Alcotest.(check (list int)) "stride 2" [ 1; 3 ]
    (Quic_client.ncid_sequence_numbers client)

let ping_gets_acked () =
  let server, client = make_pair 43L in
  let _ = run_symbol server client Quic_alphabet.Initial_crypto in
  let _ = run_symbol server client Quic_alphabet.Handshake_ack_crypto in
  let r = abstract_of (run_symbol server client Quic_alphabet.Short_ack_ping) in
  Alcotest.(check (list string)) "ack" [ "SHORT(?,?)[ACK]" ] r

let path_challenge_echoed () =
  let server, client = make_pair 47L in
  let _ = run_symbol server client Quic_alphabet.Initial_crypto in
  let _ = run_symbol server client Quic_alphabet.Handshake_ack_crypto in
  match run_symbol server client Quic_alphabet.Short_ack_path_challenge with
  | [ Quic_client.Packet p ] -> (
      match
        List.find_opt
          (fun f -> Frame.kind f = Frame.K_path_response)
          p.Quic_packet.frames
      with
      | Some (Frame.Path_response data) ->
          Alcotest.(check string) "echoes challenge bytes"
            "\x01\x02\x03\x04\x05\x06\x07\x08" data
      | _ -> Alcotest.fail "expected PATH_RESPONSE")
  | _ -> Alcotest.fail "expected one response packet"

let stop_sending_resets_stream () =
  let server, client = make_pair 53L in
  let _ = run_symbol server client Quic_alphabet.Initial_crypto in
  let _ = run_symbol server client Quic_alphabet.Handshake_ack_crypto in
  let _ = run_symbol server client Quic_alphabet.Short_ack_stream in
  (* Scenario scripting: refuse the server's response stream. *)
  match
    Quic_client.send_frames client Quic_packet.Short
      [ Frame.Stop_sending { stream_id = 0; error = 7 } ]
  with
  | None -> Alcotest.fail "client should have 1-RTT keys"
  | Some (wire, _) -> (
      let responses =
        Quic_server.handle_datagram server ~port:(Quic_client.port client) wire
      in
      match List.map (Quic_client.absorb client) responses with
      | [ Quic_client.Packet p ] -> (
          match
            List.find_opt
              (fun f -> Frame.kind f = Frame.K_reset_stream)
              p.Quic_packet.frames
          with
          | Some (Frame.Reset_stream { stream_id; error; final_size }) ->
              Alcotest.(check int) "stream id" 0 stream_id;
              Alcotest.(check int) "error echoed" 7 error;
              Alcotest.(check int) "final size = bytes sent" 50 final_size
          | _ -> Alcotest.fail "expected RESET_STREAM")
      | _ -> Alcotest.fail "expected one response packet")

let new_token_issued () =
  let server, client = make_pair ~profile:Quic_profile.token_issuing 59L in
  let _ = run_symbol server client Quic_alphabet.Initial_crypto in
  let r = abstract_of (run_symbol server client Quic_alphabet.Handshake_ack_crypto) in
  Alcotest.(check (list string)) "token in the done flight"
    [ "HANDSHAKE(?,?)[ACK]"; "SHORT(?,?)[HANDSHAKE_DONE,NEW_TOKEN]" ]
    r

let version_negotiation_on_unknown_version () =
  (* A hand-built Initial with a bogus version triggers VN. *)
  let rng = Rng.create 61L in
  let server = Quic_server.create (Rng.split rng) in
  let crypto = Quic_crypto.create () in
  let dcid = "8bytecid" in
  Quic_crypto.install_initial crypto ~dcid;
  let p =
    Quic_packet.make Quic_packet.Initial ~version:0xbadbad ~dcid ~scid:"8bytesrc"
      ~pn:0
      ~frames:[ Frame.Crypto { offset = 0; data = "CH:deadbeef;md=100;msd=50" } ]
  in
  match Quic_packet.encode ~crypto ~sender:Quic_crypto.Client_to_server p with
  | None -> Alcotest.fail "encode failed"
  | Some wire -> (
      match Quic_server.handle_datagram server ~port:5555 wire with
      | [ response ] -> (
          match
            Quic_packet.decode ~crypto ~sender:Quic_crypto.Server_to_client
              ~reset_tokens:[] response
          with
          | Quic_packet.Decoded vp ->
              Alcotest.(check bool) "version negotiation" true
                (vp.Quic_packet.ptype = Quic_packet.Version_negotiation);
              Alcotest.(check int) "offers draft-29" Quic_packet.draft29
                vp.Quic_packet.version
          | _ -> Alcotest.fail "expected a decodable VN packet")
      | _ -> Alcotest.fail "expected one VN response")

let invalid_retry_token_dropped () =
  let server, client = make_pair ~profile:Quic_profile.google_like 67L in
  let _ = run_symbol server client Quic_alphabet.Initial_crypto in
  (* Forge a fresh client (wrong token: it never saw the Retry). *)
  let intruder = Quic_client.create (Rng.create 999L) in
  let r = abstract_of (run_symbol server intruder Quic_alphabet.Initial_crypto) in
  Alcotest.(check (list string)) "dropped silently" [] r

let flow_violation_detected () =
  (* The flow-violator server pushes 80 bytes against a 50-byte limit;
     the reference client's accounting flags it (the §6.2.2 property
     "must not send data beyond the advertised limit"). *)
  let server, client = make_pair ~profile:Quic_profile.flow_violator 79L in
  let _ = run_symbol server client Quic_alphabet.Initial_crypto in
  let _ = run_symbol server client Quic_alphabet.Handshake_ack_crypto in
  let _ = run_symbol server client Quic_alphabet.Short_ack_stream in
  Alcotest.(check int) "whole body pushed" 80
    (Quic_client.received_stream_bytes client);
  Alcotest.(check bool) "violation flagged" true (Quic_client.flow_violation client);
  (* A compliant server with identical interaction never trips it. *)
  let server', client' = make_pair 79L in
  let _ = run_symbol server' client' Quic_alphabet.Initial_crypto in
  let _ = run_symbol server' client' Quic_alphabet.Handshake_ack_crypto in
  let _ = run_symbol server' client' Quic_alphabet.Short_ack_stream in
  Alcotest.(check bool) "compliant clean" false (Quic_client.flow_violation client')

let key_update_roundtrip () =
  let server, client = make_pair 73L in
  let _ = run_symbol server client Quic_alphabet.Initial_crypto in
  let _ = run_symbol server client Quic_alphabet.Handshake_ack_crypto in
  (* First exchange under key generation 0. *)
  let r1 = abstract_of (run_symbol server client Quic_alphabet.Short_ack_stream) in
  Alcotest.(check bool) "gen-0 data flows" true (r1 <> []);
  (* Client-initiated key update: the next short packet flips the key
     phase bit; the server verifies under the next generation, commits,
     and answers at the new phase — which the client can decode. *)
  Quic_client.initiate_key_update client;
  Alcotest.(check int) "client phase 1" 1 (Quic_client.key_phase client);
  (match Quic_client.send_frames client Quic_packet.Short [ Frame.Ping ] with
  | None -> Alcotest.fail "client must hold 1-RTT keys"
  | Some (wire, _) -> (
      let responses =
        Quic_server.handle_datagram server ~port:(Quic_client.port client) wire
      in
      match List.map (Quic_client.absorb client) responses with
      | [ Quic_client.Packet p ] ->
          Alcotest.(check bool) "acked under new keys" true
            (List.exists (fun f -> Frame.kind f = Frame.K_ack) p.Quic_packet.frames)
      | _ -> Alcotest.fail "expected one decodable response after key update"));
  (* Data continues to flow after the rotation. *)
  let r2 = abstract_of (run_symbol server client Quic_alphabet.Short_ack_flow) in
  Alcotest.(check bool) "gen-1 exchange works" true (r2 <> [])

let migration_with_queued_response () =
  (* Connection migration: the client moves to a new port; the server
     challenges the path; the instrumented client QUEUES its response
     (the paper's Listing-1 mechanism) until the learner asks for the
     PATH_RESPONSE symbol; the server then adopts the new path. *)
  let adapter, client = Prognosis_quic.Quic_adapter.create ~seed:83L () in
  let sul = Prognosis_sul.Adapter.to_sul adapter in
  sul.Prognosis_sul.Sul.reset ();
  let step s = sul.Prognosis_sul.Sul.step s in
  let _ = step Quic_alphabet.Initial_crypto in
  let _ = step Quic_alphabet.Handshake_ack_crypto in
  (* Before migration, the queue is empty and the symbol unrealizable. *)
  Alcotest.(check int) "queue empty" 0 (Quic_client.queued_frames client);
  Alcotest.(check string) "unrealizable" "NIL"
    (Quic_alphabet.output_to_string (step Quic_alphabet.Short_ack_path_response));
  (* Migrate and send data from the new port: the response must carry a
     PATH_CHALLENGE, and the client queues its answer. *)
  Quic_client.migrate client;
  let out = step Quic_alphabet.Short_ack_ping in
  Alcotest.(check bool) "server challenges the new path" true
    (List.exists
       (fun (a : Quic_alphabet.apacket) ->
         List.mem Frame.K_path_challenge a.Quic_alphabet.frames)
       out);
  Alcotest.(check int) "response queued, not sent" 1
    (Quic_client.queued_frames client);
  (* The learner releases the queued response; the server validates. *)
  let out = step Quic_alphabet.Short_ack_path_response in
  Alcotest.(check string) "response acked" "{SHORT(?,?)[ACK]}"
    (Quic_alphabet.output_to_string out);
  Alcotest.(check int) "queue drained" 0 (Quic_client.queued_frames client);
  (* The new path is validated: no further challenges. *)
  let out = step Quic_alphabet.Short_ack_ping in
  Alcotest.(check bool) "no re-challenge" true
    (not
       (List.exists
          (fun (a : Quic_alphabet.apacket) ->
            List.mem Frame.K_path_challenge a.Quic_alphabet.frames)
          out))

(* --- SUL determinism and learning --- *)

let quic_sul ?profile ?client_config seed =
  Quic_adapter.sul ?profile ?client_config ~seed ()

let sul_deterministic_compliant () =
  let sul = quic_sul 43L in
  let words =
    Quic_alphabet.
      [
        [ Initial_crypto; Handshake_ack_crypto; Short_ack_stream; Short_ack_flow ];
        [ Initial_crypto; Initial_ack_hsd; Short_ack_stream ];
        [ Short_ack_stream; Initial_crypto; Handshake_ack_hsd ];
        [ Initial_crypto; Handshake_ack_crypto; Short_ack_hsd; Short_ack_stream ];
      ]
  in
  List.iter
    (fun w ->
      match Nondet.query Nondet.default sul w with
      | Nondet.Deterministic _ -> ()
      | Nondet.Nondeterministic _ ->
          Alcotest.fail "compliant QUIC SUL must be deterministic")
    words

let issue2_mvfst_nondeterministic_resets () =
  let sul = quic_sul ~profile:Quic_profile.mvfst_like 47L in
  (* Close the connection with a client HANDSHAKE_DONE, then probe. *)
  let word =
    Quic_alphabet.[ Initial_crypto; Handshake_ack_hsd; Short_ack_stream ]
  in
  match
    Nondet.query { Nondet.min_runs = 25; max_runs = 200; agreement = 0.99 } sul word
  with
  | Nondet.Nondeterministic obs ->
      let reset_rate =
        Nondet.frequency obs (fun answer ->
            match List.rev answer with
            | last :: _ -> last = [ Quic_alphabet.abstract_reset ]
            | [] -> false)
      in
      Alcotest.(check bool)
        (Printf.sprintf "reset rate %.2f in (0.6, 0.95)" reset_rate)
        true
        (reset_rate > 0.6 && reset_rate < 0.95)
  | Nondet.Deterministic _ ->
      Alcotest.fail "mvfst-like profile must exhibit the Issue-2 nondeterminism"

let learn_profile ?client_config profile seed =
  let sul = quic_sul ~profile ?client_config seed in
  let rng = Rng.create (Int64.add seed 1000L) in
  let eq =
    Eq_oracle.combine
      [
        Eq_oracle.w_method ~extra_states:1 ();
        Eq_oracle.random_words ~rng ~max_tests:300 ~min_len:1 ~max_len:10;
      ]
  in
  Learn.run ~inputs:Quic_alphabet.all ~sul ~eq ()

let learn_quiche_like () =
  let result = learn_profile Quic_profile.quiche_like 53L in
  let m = result.Learn.model in
  Alcotest.(check bool)
    (Printf.sprintf "states %d in [4..16]" (Mealy.size m))
    true
    (Mealy.size m >= 4 && Mealy.size m <= 16);
  (* The learned model replays the handshake. *)
  let out =
    Mealy.run m Quic_alphabet.[ Initial_crypto; Handshake_ack_crypto ]
  in
  match List.map Quic_alphabet.output_to_string out with
  | [ first; second ] ->
      Alcotest.(check bool) "first is server flight" true
        (String.length first > 10);
      Alcotest.(check bool) "second contains HANDSHAKE_DONE" true
        (let rec contains h n i =
           i + String.length n <= String.length h
           && (String.sub h i (String.length n) = n || contains h n (i + 1))
         in
         contains second "HANDSHAKE_DONE" 0)
  | _ -> Alcotest.fail "unexpected output arity"

let issue1_model_size_difference () =
  (* The tolerant-retry and strict-retry servers learn models of
     different sizes: the paper's Issue-1 signal (§6.2.3). *)
  let tolerant = learn_profile Quic_profile.google_like 59L in
  let strict = learn_profile Quic_profile.strict_retry 61L in
  let st = Mealy.size tolerant.Learn.model and ss = Mealy.size strict.Learn.model in
  Alcotest.(check bool)
    (Printf.sprintf "tolerant(%d) > strict(%d)" st ss)
    true (st > ss)

let () =
  Alcotest.run "quic"
    [
      ( "varint",
        [
          Alcotest.test_case "roundtrip" `Quick varint_roundtrip;
          Alcotest.test_case "lengths" `Quick varint_lengths;
          Alcotest.test_case "rejects" `Quick varint_rejects;
        ] );
      ( "crypto",
        [
          Alcotest.test_case "seal/open" `Quick crypto_seal_open;
          Alcotest.test_case "tamper detection" `Quick crypto_detects_tamper;
          Alcotest.test_case "level isolation" `Quick crypto_level_isolation;
          Alcotest.test_case "direction isolation" `Quick crypto_direction_isolation;
          Alcotest.test_case "known answer" `Quick crypto_known_answer;
        ] );
      ( "frames",
        [
          Alcotest.test_case "roundtrip all 20" `Quick frame_roundtrip;
          Alcotest.test_case "20 kinds" `Quick frame_kinds_cover_all_20;
          Alcotest.test_case "bad input" `Quick frame_bad_input;
          Alcotest.test_case "ack eliciting" `Quick frame_ack_eliciting;
        ] );
      ( "packets",
        [
          Alcotest.test_case "initial" `Quick packet_initial_roundtrip;
          Alcotest.test_case "handshake" `Quick packet_handshake_roundtrip;
          Alcotest.test_case "short" `Quick packet_short_roundtrip;
          Alcotest.test_case "retry" `Quick packet_retry_roundtrip;
          Alcotest.test_case "wrong keys" `Quick packet_wrong_keys_undecodable;
          Alcotest.test_case "stateless reset" `Quick stateless_reset_detection;
        ] );
      ( "connection",
        [
          Alcotest.test_case "handshake flow" `Quick handshake_flow;
          Alcotest.test_case "flow control" `Quick data_exchange_with_flow_control;
          Alcotest.test_case "compliant SDB offset" `Quick compliant_sdb_carries_offset;
          Alcotest.test_case "issue 4: SDB zero" `Quick issue4_sdb_constant_zero;
          Alcotest.test_case "client HSD closes" `Quick handshake_done_from_client_closes;
          Alcotest.test_case "reset after close" `Quick reset_after_close_compliant;
          Alcotest.test_case "retry establishes" `Quick retry_roundtrip_establishes;
          Alcotest.test_case "issue 3: port bug" `Quick issue3_retry_port_bug_blocks_handshake;
          Alcotest.test_case "issue 1: strict abort" `Quick issue1_strict_profile_aborts_on_pns_reset;
          Alcotest.test_case "ncid sequences" `Quick ncid_sequence_numbers;
          Alcotest.test_case "ping acked" `Quick ping_gets_acked;
          Alcotest.test_case "path challenge echoed" `Quick path_challenge_echoed;
          Alcotest.test_case "stop_sending resets" `Quick stop_sending_resets_stream;
          Alcotest.test_case "new token issued" `Quick new_token_issued;
          Alcotest.test_case "version negotiation" `Quick version_negotiation_on_unknown_version;
          Alcotest.test_case "invalid retry token" `Quick invalid_retry_token_dropped;
          Alcotest.test_case "key update" `Quick key_update_roundtrip;
          Alcotest.test_case "flow violation detected" `Quick flow_violation_detected;
          Alcotest.test_case "migration + queue" `Quick migration_with_queued_response;
        ] );
      ( "learning",
        [
          Alcotest.test_case "deterministic" `Quick sul_deterministic_compliant;
          Alcotest.test_case "issue 2: mvfst nondet" `Slow issue2_mvfst_nondeterministic_resets;
          Alcotest.test_case "learn quiche-like" `Slow learn_quiche_like;
          Alcotest.test_case "issue 1: model sizes" `Slow issue1_model_size_difference;
        ] );
    ]
