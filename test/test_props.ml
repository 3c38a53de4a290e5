(* Property-based tests over the wire codecs, the crypto simulation and
   the learning pipeline: the invariants that must hold for arbitrary
   data, not just the fixtures. *)

module Mealy = Prognosis_automata.Mealy
module Testing = Prognosis_automata.Testing
module Rng = Prognosis_sul.Rng
module Sul = Prognosis_sul.Sul
module Oracle = Prognosis_learner.Oracle
module Cache = Prognosis_learner.Cache
module Model_diff = Prognosis_analysis.Model_diff
module Lstar = Prognosis_learner.Lstar
module Ttt = Prognosis_learner.Ttt
module Eq_oracle = Prognosis_learner.Eq_oracle
module Tcp_wire = Prognosis_tcp.Tcp_wire
module Varint = Prognosis_quic.Varint
module Frame = Prognosis_quic.Frame
module Quic_packet = Prognosis_quic.Quic_packet
module Quic_crypto = Prognosis_quic.Quic_crypto

let gen = QCheck2.Gen.int_range

(* --- varint --- *)

let gen_varint_value =
  QCheck2.Gen.oneof
    [
      gen 0 63;
      gen 64 16383;
      gen 16384 1073741823;
      QCheck2.Gen.map (fun v -> abs v mod Varint.max_value) QCheck2.Gen.int;
    ]

let prop_varint_roundtrip =
  QCheck2.Test.make ~count:1000 ~name:"varint roundtrip" gen_varint_value (fun v ->
      let s = Varint.encode_to_string v in
      let v', off = Varint.decode s 0 in
      v = v' && off = String.length s)

let prop_varint_sequence =
  QCheck2.Test.make ~count:300 ~name:"varint sequences decode in order"
    QCheck2.Gen.(list_size (gen 1 20) gen_varint_value)
    (fun values ->
      let s = String.concat "" (List.map Varint.encode_to_string values) in
      let rec decode_all off acc =
        if off >= String.length s then List.rev acc
        else
          let v, off' = Varint.decode s off in
          decode_all off' (v :: acc)
      in
      decode_all 0 [] = values)

let prop_varint_length_monotone =
  QCheck2.Test.make ~count:500 ~name:"varint length is monotone"
    QCheck2.Gen.(pair gen_varint_value gen_varint_value)
    (fun (a, b) ->
      let small = min a b and large = max a b in
      Varint.encoded_length small <= Varint.encoded_length large)

(* --- TCP wire --- *)

let gen_flags =
  QCheck2.Gen.oneofl
    (List.map Tcp_wire.flags_of_string [ "S"; "SA"; "A"; "AP"; "AF"; "R"; "AR"; "" ])

let gen_options =
  QCheck2.Gen.(
    list_size (gen 0 3)
      (oneof
         [
           map (fun v -> Tcp_wire.Mss v) (gen 0 65535);
           map (fun v -> Tcp_wire.Window_scale v) (gen 0 14);
           return Tcp_wire.Sack_permitted;
           map
             (fun (v, e) -> Tcp_wire.Timestamps { value = v; echo = e })
             (pair (gen 0 1000000) (gen 0 1000000));
         ]))

let gen_segment =
  QCheck2.Gen.(
    let* src_port = gen 0 65535 in
    let* dst_port = gen 0 65535 in
    let* seq = gen 0 0xFFFFFFFF in
    let* ack = gen 0 0xFFFFFFFF in
    let* flags = gen_flags in
    let* options = gen_options in
    let* payload = string_size ~gen:printable (gen 0 40) in
    return (Tcp_wire.make ~options ~payload ~src_port ~dst_port ~seq ~ack flags))

let prop_tcp_roundtrip =
  QCheck2.Test.make ~count:500 ~name:"tcp segment roundtrip" gen_segment (fun seg ->
      match Tcp_wire.decode (Tcp_wire.encode seg) with
      | Error _ -> false
      | Ok seg' ->
          seg'.Tcp_wire.seq = seg.Tcp_wire.seq
          && seg'.Tcp_wire.ack = seg.Tcp_wire.ack
          && seg'.Tcp_wire.src_port = seg.Tcp_wire.src_port
          && seg'.Tcp_wire.dst_port = seg.Tcp_wire.dst_port
          && seg'.Tcp_wire.payload = seg.Tcp_wire.payload
          && seg'.Tcp_wire.options = seg.Tcp_wire.options
          && Tcp_wire.flags_to_string seg'.Tcp_wire.flags
             = Tcp_wire.flags_to_string seg.Tcp_wire.flags)

let prop_tcp_bitflip_detected =
  QCheck2.Test.make ~count:500 ~name:"tcp checksum detects any single-bit flip"
    QCheck2.Gen.(triple gen_segment (gen 0 1000) (gen 0 7))
    (fun (seg, pos, bit) ->
      let wire = Tcp_wire.encode seg in
      let pos = pos mod String.length wire in
      let flipped =
        String.mapi
          (fun i c -> if i = pos then Char.chr (Char.code c lxor (1 lsl bit)) else c)
          wire
      in
      match Tcp_wire.decode flipped with Error _ -> true | Ok _ -> false)

(* --- QUIC frames --- *)

let gen_token = QCheck2.Gen.(string_size ~gen:printable (gen 0 20))

let gen_frame =
  (* Excludes PADDING: adjacent padding runs coalesce by design, so
     exact list roundtrip holds only without it (covered separately). *)
  QCheck2.Gen.(
    oneof
      [
        return Frame.Ping;
        map
          (fun (largest, delay, range) -> Frame.Ack { largest; delay; first_range = range })
          (triple (gen 0 10000) (gen 0 100) (gen 0 50));
        map
          (fun (id, err, size) ->
            Frame.Reset_stream { stream_id = id; error = err; final_size = size })
          (triple (gen 0 100) (gen 0 30) (gen 0 100000));
        map
          (fun (id, err) -> Frame.Stop_sending { stream_id = id; error = err })
          (pair (gen 0 100) (gen 0 30));
        map
          (fun (off, data) -> Frame.Crypto { offset = off; data })
          (pair (gen 0 1000) gen_token);
        map (fun t -> Frame.New_token t) gen_token;
        map
          (fun (id, off, data, fin) -> Frame.Stream { id; offset = off; data; fin })
          (quad (gen 0 60) (gen 0 1000) gen_token bool);
        map (fun v -> Frame.Max_data v) (gen 0 1000000);
        map
          (fun (id, m) -> Frame.Max_stream_data { stream_id = id; max = m })
          (pair (gen 0 100) (gen 0 1000000));
        map
          (fun (bidi, m) -> Frame.Max_streams { bidi; max = m })
          (pair bool (gen 0 1000));
        map (fun v -> Frame.Data_blocked v) (gen 0 100000);
        map
          (fun (id, m) -> Frame.Stream_data_blocked { stream_id = id; max = m })
          (pair (gen 0 100) (gen 0 100000));
        map
          (fun (bidi, m) -> Frame.Streams_blocked { bidi; max = m })
          (pair bool (gen 0 1000));
        map
          (fun (seq, cid) ->
            Frame.New_connection_id
              { seq; retire_prior = 0; cid; reset_token = String.make 16 'T' })
          (pair (gen 0 50) (string_size ~gen:printable (return 8)));
        map (fun seq -> Frame.Retire_connection_id seq) (gen 0 50);
        map (fun s -> Frame.Path_challenge s) (string_size ~gen:printable (return 8));
        map (fun s -> Frame.Path_response s) (string_size ~gen:printable (return 8));
        map
          (fun (err, reason, app) ->
            Frame.Connection_close { error = err; frame_type = 0; reason; app })
          (triple (gen 0 30) gen_token bool);
        return Frame.Handshake_done;
      ])

let prop_frames_roundtrip =
  QCheck2.Test.make ~count:500 ~name:"frame lists roundtrip"
    QCheck2.Gen.(list_size (gen 0 10) gen_frame)
    (fun frames ->
      match Frame.decode_all (Frame.encode_all frames) with
      | Ok decoded -> decoded = frames
      | Error _ -> false)

let prop_padding_coalesces =
  QCheck2.Test.make ~count:200 ~name:"padding coalesces to one frame"
    (gen 1 30)
    (fun n ->
      match Frame.decode_all (Frame.encode_all [ Frame.Padding n ]) with
      | Ok [ Frame.Padding n' ] -> n' = max n 1
      | Ok _ | Error _ -> false)

(* --- QUIC packets --- *)

let fresh_crypto () =
  let c = Quic_crypto.create () in
  Quic_crypto.install_initial c ~dcid:"testcid0";
  Quic_crypto.install_handshake c ~client_random:"cr" ~server_random:"sr";
  c

let prop_packet_roundtrip =
  QCheck2.Test.make ~count:300 ~name:"quic packets roundtrip under protection"
    QCheck2.Gen.(
      triple
        (oneofl [ Quic_packet.Initial; Quic_packet.Handshake; Quic_packet.Short ])
        (gen 0 100000)
        (list_size (gen 0 6) gen_frame))
    (fun (ptype, pn, frames) ->
      let crypto = fresh_crypto () in
      let dcid = "8bytecid" in
      let p = Quic_packet.make ptype ~dcid ~scid:"scid" ~pn ~frames in
      match Quic_packet.encode ~crypto ~sender:Quic_crypto.Client_to_server p with
      | None -> false
      | Some wire -> (
          match
            Quic_packet.decode ~crypto ~sender:Quic_crypto.Client_to_server
              ~reset_tokens:[] wire
          with
          | Quic_packet.Decoded p' ->
              p'.Quic_packet.ptype = ptype
              && p'.Quic_packet.pn = pn
              && p'.Quic_packet.frames = frames
          | Quic_packet.Reset_detected _ | Quic_packet.Undecodable _ -> false))

let prop_packet_bitflip_rejected =
  QCheck2.Test.make ~count:300 ~name:"quic packet protection detects tampering"
    QCheck2.Gen.(pair (gen 0 1000) (gen 0 7))
    (fun (pos, bit) ->
      let crypto = fresh_crypto () in
      let p =
        Quic_packet.make Quic_packet.Initial ~dcid:"8bytecid" ~scid:"scid" ~pn:3
          ~frames:[ Frame.Ping; Frame.Handshake_done ]
      in
      match Quic_packet.encode ~crypto ~sender:Quic_crypto.Client_to_server p with
      | None -> false
      | Some wire -> (
          let pos = pos mod String.length wire in
          let flipped =
            String.mapi
              (fun i c ->
                if i = pos then Char.chr (Char.code c lxor (1 lsl bit)) else c)
              wire
          in
          if flipped = wire then true
          else
            match
              Quic_packet.decode ~crypto ~sender:Quic_crypto.Client_to_server
                ~reset_tokens:[] flipped
            with
            | Quic_packet.Decoded p' ->
                (* A header flip may still parse; the payload must not
                   silently change. *)
                p'.Quic_packet.frames = p.Quic_packet.frames
            | Quic_packet.Reset_detected _ | Quic_packet.Undecodable _ -> true))

(* --- crypto --- *)

(* [Quic_crypto.open_] reads the header and the sealed payload from one
   datagram; these properties keep them apart. *)
let quic_open c level direction ~pn ~header sealed =
  Quic_crypto.open_ c level direction ~pn (header ^ sealed)
    ~header_len:(String.length header) ~len:(String.length sealed)

let prop_crypto_roundtrip =
  QCheck2.Test.make ~count:300 ~name:"seal/open roundtrip"
    QCheck2.Gen.(pair (string_size ~gen:printable (gen 0 100)) (gen 0 100000))
    (fun (plaintext, pn) ->
      let c = fresh_crypto () in
      match
        Quic_crypto.seal c Quic_crypto.Application_level
          Quic_crypto.Server_to_client ~pn ~header:"hd" plaintext
      with
      | None -> false
      | Some sealed ->
          quic_open c Quic_crypto.Application_level
            Quic_crypto.Server_to_client ~pn ~header:"hd" sealed
          = Some plaintext)

let prop_crypto_pn_binding =
  QCheck2.Test.make ~count:200 ~name:"packet number is bound by the AEAD"
    QCheck2.Gen.(pair (gen 0 1000) (gen 0 1000))
    (fun (pn1, pn2) ->
      pn1 = pn2
      ||
      let c = fresh_crypto () in
      match
        Quic_crypto.seal c Quic_crypto.Initial_level Quic_crypto.Client_to_server
          ~pn:pn1 ~header:"h" "data"
      with
      | None -> false
      | Some sealed ->
          quic_open c Quic_crypto.Initial_level
            Quic_crypto.Client_to_server ~pn:pn2 ~header:"h" sealed
          = None)

let prop_crypto_bitflip_rejected =
  QCheck2.Test.make ~count:300
    ~name:"single-bit flips in ciphertext or tag are rejected"
    QCheck2.Gen.(
      triple (string_size ~gen:char (gen 0 40)) (gen 0 1000) (gen 0 7))
    (fun (plaintext, pos, bit) ->
      let c = fresh_crypto () in
      match
        Quic_crypto.seal c Quic_crypto.Handshake_level
          Quic_crypto.Client_to_server ~pn:9 ~header:"hd" plaintext
      with
      | None -> false
      | Some sealed ->
          let pos = pos mod String.length sealed in
          let flipped =
            String.mapi
              (fun i ch ->
                if i = pos then Char.chr (Char.code ch lxor (1 lsl bit)) else ch)
              sealed
          in
          quic_open c Quic_crypto.Handshake_level
            Quic_crypto.Client_to_server ~pn:9 ~header:"hd" flipped
          = None)

(* The record-protection primitive works on slices: opening in place
   is opening a copy, and sealing behind a header is sealing alone. *)
module Sim_crypto = Prognosis_sul.Sim_crypto

let gen_bytes n = QCheck2.Gen.(string_size ~gen:char (gen 0 n))

let prop_open_slice =
  QCheck2.Test.make ~count:500
    ~name:"open_ (s, off, len) == open_ of String.sub"
    QCheck2.Gen.(
      quad (triple (gen_bytes 20) (gen_bytes 60) (gen_bytes 20)) bool
        (pair (gen 0 100) (gen 0 100))
        (pair int int))
    (fun ((prefix, plaintext, suffix), tamper, (dl, dr), (stream, auth)) ->
      let n = String.length plaintext in
      let b = Bytes.create (n + Sim_crypto.tag_length) in
      Bytes.blit_string plaintext 0 b 0 n;
      Sim_crypto.seal ~stream ~auth b 0 n;
      if tamper && n > 0 then
        Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 1));
      let s = prefix ^ Bytes.to_string b ^ suffix in
      (* the sealed slice itself, and an arbitrary one *)
      let off = dl mod (String.length s + 1) in
      let arbitrary = (off, dr mod (String.length s - off + 1)) in
      List.for_all
        (fun (off, len) ->
          Sim_crypto.open_ ~stream ~auth s off len
          = Sim_crypto.open_ ~stream ~auth (String.sub s off len) 0 len)
        [ (String.length prefix, Bytes.length b); arbitrary ]
      && Sim_crypto.open_ ~stream ~auth s (String.length prefix)
           (Bytes.length b)
         = if tamper && n > 0 then None else Some plaintext)

let prop_seal_behind_header =
  QCheck2.Test.make ~count:500 ~name:"one-buffer seal == header ^ seal payload"
    QCheck2.Gen.(triple (gen_bytes 40) (gen_bytes 80) (pair int int))
    (fun (header, payload, (stream, auth)) ->
      let h = String.length header and n = String.length payload in
      let alone = Bytes.create (n + Sim_crypto.tag_length) in
      Bytes.blit_string payload 0 alone 0 n;
      Sim_crypto.seal ~stream ~auth alone 0 n;
      let one = Bytes.create (h + n + Sim_crypto.tag_length) in
      Bytes.blit_string header 0 one 0 h;
      Bytes.blit_string payload 0 one h n;
      Sim_crypto.seal ~stream ~auth one h n;
      Bytes.to_string one = header ^ Bytes.to_string alone)

let prop_derive_key =
  QCheck2.Test.make ~count:500 ~name:"derive_key == absorbed derive_from"
    QCheck2.Gen.(pair int (gen_bytes 20))
    (fun (h, label) ->
      Sim_crypto.derive_key h label
      = Sim_crypto.fold_string Sim_crypto.fnv_basis
          (Sim_crypto.derive_from h label))

let prop_fold_concat =
  QCheck2.Test.make ~count:500
    ~name:"fold_concat == fold_string of the concatenation"
    QCheck2.Gen.(pair int (list_size (gen 0 5) (gen_bytes 20)))
    (fun (h, parts) ->
      Sim_crypto.fold_concat h parts
      = Sim_crypto.fold_string h (String.concat "" parts))

(* --- DTLS record protection --- *)

module Dtls_crypto = Prognosis_dtls.Dtls_crypto

let fresh_dtls_crypto () =
  let c = Dtls_crypto.create () in
  Dtls_crypto.derive_master c ~client_random:"cr" ~server_random:"sr"
    ~premaster:"pms";
  c

(* whole-string views of the in-place seal and the slice open *)
let dtls_seal c direction ~epoch ~seq plaintext =
  let n = String.length plaintext in
  let b = Bytes.create (n + Dtls_crypto.tag_length) in
  Bytes.blit_string plaintext 0 b 0 n;
  if Dtls_crypto.seal c direction ~epoch ~seq b 0 n then
    Some (Bytes.to_string b)
  else None

let dtls_open c direction ~epoch ~seq sealed =
  Dtls_crypto.open_ c direction ~epoch ~seq sealed 0 (String.length sealed)

let gen_epoch_seq = QCheck2.Gen.(pair (gen 0 0xFFFF) (gen 0 0xFFFFFFFFFFFF))

let prop_dtls_crypto_roundtrip =
  QCheck2.Test.make ~count:300 ~name:"dtls seal/open roundtrip"
    QCheck2.Gen.(pair (string_size ~gen:char (gen 0 100)) gen_epoch_seq)
    (fun (plaintext, (epoch, seq)) ->
      let c = fresh_dtls_crypto () in
      match dtls_seal c Dtls_crypto.Server_write ~epoch ~seq plaintext with
      | None -> false
      | Some sealed ->
          String.length sealed = String.length plaintext + Dtls_crypto.tag_length
          && dtls_open c Dtls_crypto.Server_write ~epoch ~seq sealed
             = Some plaintext)

let prop_dtls_crypto_epoch_seq_binding =
  QCheck2.Test.make ~count:300 ~name:"dtls (epoch, seq) is bound by the tag"
    QCheck2.Gen.(pair gen_epoch_seq gen_epoch_seq)
    (fun ((e1, s1), (e2, s2)) ->
      (e1, s1) = (e2, s2)
      ||
      let c = fresh_dtls_crypto () in
      match
        dtls_seal c Dtls_crypto.Client_write ~epoch:e1 ~seq:s1 "data"
      with
      | None -> false
      | Some sealed ->
          dtls_open c Dtls_crypto.Client_write ~epoch:e2 ~seq:s2 sealed
          = None)

let prop_dtls_crypto_bitflip_rejected =
  QCheck2.Test.make ~count:300
    ~name:"dtls single-bit flips in ciphertext or tag are rejected"
    QCheck2.Gen.(
      triple (string_size ~gen:char (gen 0 40)) (gen 0 1000) (gen 0 7))
    (fun (plaintext, pos, bit) ->
      let c = fresh_dtls_crypto () in
      match dtls_seal c Dtls_crypto.Client_write ~epoch:1 ~seq:5 plaintext with
      | None -> false
      | Some sealed ->
          let pos = pos mod String.length sealed in
          let flipped =
            String.mapi
              (fun i ch ->
                if i = pos then Char.chr (Char.code ch lxor (1 lsl bit)) else ch)
              sealed
          in
          dtls_open c Dtls_crypto.Client_write ~epoch:1 ~seq:5 flipped
          = None)

let prop_dtls_crypto_direction_bound =
  QCheck2.Test.make ~count:300 ~name:"dtls records do not open in the other direction"
    QCheck2.Gen.(pair (string_size ~gen:char (gen 0 40)) gen_epoch_seq)
    (fun (plaintext, (epoch, seq)) ->
      let c = fresh_dtls_crypto () in
      match dtls_seal c Dtls_crypto.Client_write ~epoch ~seq plaintext with
      | None -> false
      | Some sealed ->
          dtls_open c Dtls_crypto.Server_write ~epoch ~seq sealed = None)

(* --- DTLS records --- *)

module Dtls_wire = Prognosis_dtls.Dtls_wire

let gen_dtls_handshake =
  QCheck2.Gen.(
    let* msg_type =
      oneofl
        Dtls_wire.
          [
            Client_hello; Server_hello; Hello_verify_request; Certificate;
            Server_hello_done; Client_key_exchange; Finished;
          ]
    in
    let* message_seq = gen 0 1000 in
    let* body = string_size ~gen:printable (gen 0 50) in
    return { Dtls_wire.msg_type; message_seq; body })

let prop_dtls_handshake_roundtrip =
  QCheck2.Test.make ~count:300 ~name:"dtls handshake messages roundtrip"
    gen_dtls_handshake
    (fun h ->
      match Dtls_wire.decode_handshake (Dtls_wire.encode_handshake h) with
      | Ok h' -> h' = h
      | Error _ -> false)

let prop_dtls_record_roundtrip =
  QCheck2.Test.make ~count:300 ~name:"dtls records roundtrip"
    QCheck2.Gen.(
      quad
        (oneofl
           Dtls_wire.[ Change_cipher_spec; Alert; Handshake; Application_data ])
        (gen 0 1) (gen 0 100000)
        (string_size ~gen:printable (gen 0 60)))
    (fun (content, epoch, seq, payload) ->
      let r = { Dtls_wire.content; epoch; seq; payload } in
      (* Plaintext roundtrip (no protection callbacks). *)
      match Dtls_wire.decode_record (Dtls_wire.encode_record r) with
      | Ok r' -> r' = r
      | Error _ -> false)

(* --- IPv4/UDP encapsulation --- *)

module Inet = Prognosis_sul.Inet

let prop_inet_udp_roundtrip =
  QCheck2.Test.make ~count:300 ~name:"ipv4/udp wrap-unwrap roundtrip"
    QCheck2.Gen.(
      quad (gen 0 0xFFFF) (gen 1 65535) (gen 1 65535)
        (string_size ~gen:printable (gen 0 80)))
    (fun (addr_salt, src_port, dst_port, payload) ->
      let src = 0x0A000000 lor addr_salt and dst = 0x0B000000 lor addr_salt in
      match
        Inet.unwrap_udp (Inet.wrap_udp ~src ~dst ~src_port ~dst_port payload)
      with
      | Ok (port, payload') -> port = src_port && payload' = payload
      | Error _ -> false)

let prop_inet_bitflip_detected =
  QCheck2.Test.make ~count:300 ~name:"ipv4/udp single-bit flips are detected"
    QCheck2.Gen.(triple (gen 0 1000) (gen 0 7) (string_size ~gen:printable (gen 1 40)))
    (fun (pos, bit, payload) ->
      let wire = Inet.wrap_udp ~src:1 ~dst:2 ~src_port:3 ~dst_port:4 payload in
      let pos = pos mod String.length wire in
      let flipped =
        String.mapi
          (fun i c -> if i = pos then Char.chr (Char.code c lxor (1 lsl bit)) else c)
          wire
      in
      match Inet.unwrap_udp flipped with
      | Error _ -> true
      | Ok (port, payload') ->
          (* The flip may hit padding-free fields we do not check (TTL);
             accept only when the delivered data is untouched. *)
          port = 3 && payload' = payload)

(* The single-pass framing against the two-layer composition. *)
let prop_inet_wrap_udp_matches_layers =
  QCheck2.Test.make ~count:300 ~name:"wrap_udp equals Ipv4.encode of Udp.encode"
    QCheck2.Gen.(
      quad (gen 0 0x3FFFFFFF) (gen 0 0xFFFF) (gen 0 0xFFFF)
        (string_size ~gen:char (gen 0 80)))
    (fun (src, src_port, dst_port, payload) ->
      let dst = src lxor 0x2A5A5A5A in
      Inet.wrap_udp ~src ~dst ~src_port ~dst_port payload
      = Inet.Ipv4.encode
          {
            Inet.Ipv4.src;
            dst;
            ttl = 64;
            protocol = Inet.Ipv4.udp_protocol;
            payload =
              Inet.Udp.encode ~src_ip:src ~dst_ip:dst
                { Inet.Udp.src_port; dst_port; payload };
          })

let ipv4_fix_checksum b =
  Bytes.set_uint16_be b 10 0;
  let sum = ref 0 in
  for i = 0 to 9 do
    sum := !sum + Bytes.get_uint16_be b (2 * i)
  done;
  while !sum lsr 16 <> 0 do
    sum := (!sum land 0xFFFF) + (!sum lsr 16)
  done;
  Bytes.set_uint16_be b 10 (lnot !sum land 0xFFFF)

(* Datagrams with one 16-bit word overwritten (often with a small value,
   to hit the length fields' bounds; the IPv4 checksum optionally
   repaired, so they reach the later checks), truncated, or intact. *)
let gen_mangled_datagram =
  QCheck2.Gen.(
    let* payload = string_size ~gen:char (gen 0 40) in
    let* pos = gen 0 100 and* value = oneof [ gen 0 64; gen 0 0xFFFF ] in
    let* repair = bool in
    let* cut = gen 0 80 and* tcp = bool in
    let src = 0x0A000001 and dst = 0x0A000002 in
    let wire =
      if tcp then Inet.wrap_tcp ~src ~dst payload
      else Inet.wrap_udp ~src ~dst ~src_port:7 ~dst_port:9 payload
    in
    let b = Bytes.of_string wire in
    Bytes.set_uint16_be b (2 * (pos mod (String.length wire / 2))) value;
    if repair then ipv4_fix_checksum b;
    let mutated = Bytes.to_string b in
    oneofl
      [ wire; mutated; String.sub mutated 0 (min cut (String.length wire)) ])

let prop_inet_unwrap_udp_matches_layers =
  QCheck2.Test.make ~count:1000
    ~name:"unwrap_udp equals Ipv4.decode then Udp.decode" gen_mangled_datagram
    (fun wire ->
      let layered =
        match Inet.Ipv4.decode wire with
        | Error e -> Error e
        | Ok ip when ip.Inet.Ipv4.protocol <> Inet.Ipv4.udp_protocol ->
            Error "ipv4: not UDP"
        | Ok ip -> (
            match
              Inet.Udp.decode ~src_ip:ip.Inet.Ipv4.src ~dst_ip:ip.Inet.Ipv4.dst
                ip.Inet.Ipv4.payload
            with
            | Error e -> Error e
            | Ok u -> Ok (u.Inet.Udp.src_port, u.Inet.Udp.payload))
      in
      Inet.unwrap_udp wire = layered)

(* The lane-wise sum against the RFC 1071 definition, one big-endian
   16-bit word at a time, at any offset and any (often odd) length. *)
let word_sum_reference acc s off len =
  let sum = ref acc in
  for k = 0 to (len / 2) - 1 do
    let i = off + (2 * k) in
    sum := !sum + (Char.code s.[i] lsl 8) + Char.code s.[i + 1]
  done;
  if len land 1 = 1 then sum := !sum + (Char.code s.[off + len - 1] lsl 8);
  !sum

let prop_inet_sum_lanes =
  QCheck2.Test.make ~count:1000 ~name:"lane-wise sum == byte-pair reference"
    QCheck2.Gen.(
      quad (string_size ~gen:char (gen 0 300)) (gen 0 300) (gen 0 300)
        (gen 0 0xFFFFF))
    (fun (s, off, len, acc) ->
      let off = off mod (String.length s + 1) in
      let len = len mod (String.length s - off + 1) in
      Inet.sum acc s off len = word_sum_reference acc s off len)

(* --- decoder fuzzing: mutations of valid packets --- *)

(* Each decoder takes whatever arrives: valid packets with bits flipped,
   cut short, bytes overwritten, or a length field edited (to a small
   value as often as to an arbitrary one). It must answer with its typed
   error, never raise. *)
type mutation =
  | Flip of int * int
  | Truncate of int
  | Set_byte of int * int
  | Set_length of int * int

let gen_mutations =
  QCheck2.Gen.(
    list_size (gen 1 3)
      (oneof
         [
           map2 (fun p b -> Flip (p, b)) (gen 0 10_000) (gen 0 7);
           map (fun n -> Truncate n) (gen 0 10_000);
           map2 (fun p v -> Set_byte (p, v)) (gen 0 10_000) (gen 0 255);
           map2
             (fun i v -> Set_length (i, v))
             (gen 0 100)
             (oneof [ gen 0 16; gen 0 255 ]);
         ]))

(* [lengths] holds the offsets of the packet's length fields. *)
let mutate ~lengths wire m =
  let n = String.length wire in
  let set pos v =
    String.mapi (fun i c -> if i = pos then Char.chr v else c) wire
  in
  if n = 0 then wire
  else
    match m with
    | Flip (p, bit) -> set (p mod n) (Char.code wire.[p mod n] lxor (1 lsl bit))
    | Truncate k -> String.sub wire 0 (k mod (n + 1))
    | Set_byte (p, v) -> set (p mod n) v
    | Set_length (i, v) -> (
        match List.filter (fun o -> o < n) lengths with
        | [] -> wire
        | offsets -> set (List.nth offsets (i mod List.length offsets)) v)

let mutate_all ~lengths wire ms = List.fold_left (mutate ~lengths) wire ms

let never_raises decode wire =
  match decode wire with
  | _ -> true
  | exception e ->
      QCheck2.Test.fail_reportf "raised %s on %S" (Printexc.to_string e) wire

let prop_fuzz_quic_packet =
  QCheck2.Test.make ~count:3000 ~name:"Quic_packet.decode of mutated packets"
    QCheck2.Gen.(
      quad
        (oneofl Quic_packet.[ Initial; Handshake; Short ])
        (gen 0 100000)
        (list_size (gen 0 6) gen_frame)
        gen_mutations)
    (fun (ptype, pn, frames, ms) ->
      let crypto = fresh_crypto () in
      let sender = Quic_crypto.Client_to_server in
      let p =
        Quic_packet.make ptype ~dcid:"8bytecid" ~scid:"scid" ~pn ~frames
      in
      match Quic_packet.encode ~crypto ~sender p with
      | None -> false
      | Some wire ->
          (* long header: cid lengths at 5 and 14, then the token length
             (Initial) and the Length varint *)
          never_raises
            (Quic_packet.decode ~crypto ~sender
               ~reset_tokens:[ String.make 16 'T' ])
            (mutate_all ~lengths:[ 5; 14; 19; 20; 21 ] wire ms))

let prop_fuzz_frames =
  QCheck2.Test.make ~count:3000 ~name:"Frame.decode_all of mutated payloads"
    QCheck2.Gen.(
      pair
        (list_size (gen 0 8)
           (oneof [ gen_frame; map (fun n -> Frame.Padding n) (gen 1 5) ]))
        gen_mutations)
    (fun (frames, ms) ->
      never_raises Frame.decode_all
        (mutate_all ~lengths:[] (Frame.encode_all frames) ms))

let prop_fuzz_dtls =
  QCheck2.Test.make ~count:3000
    ~name:"Dtls_wire.decode_record/decode_handshake of mutated records"
    QCheck2.Gen.(
      triple gen_dtls_handshake (pair (gen 0 1) (gen 0 100000)) gen_mutations)
    (fun (h, (epoch, seq), ms) ->
      let keys = (fresh_dtls_crypto (), Dtls_crypto.Client_write) in
      let r =
        {
          Dtls_wire.content = Dtls_wire.Handshake;
          epoch;
          seq;
          payload = Dtls_wire.encode_handshake h;
        }
      in
      (* record length at 11, then the handshake length and fragment
         length behind the 13-byte record header *)
      let wire =
        mutate_all ~lengths:[ 11; 12; 14; 15; 16; 22; 23; 24 ]
          (Dtls_wire.encode_record ~protect:keys r)
          ms
      in
      never_raises
        (fun wire ->
          match Dtls_wire.decode_record ~unprotect:keys wire with
          | Ok r -> ignore (Dtls_wire.decode_handshake r.Dtls_wire.payload)
          | Error _ -> ())
        wire
      && never_raises Dtls_wire.decode_handshake
           (mutate_all ~lengths:[ 1; 2; 3; 9; 10; 11 ] r.Dtls_wire.payload ms))

(* Rewrites a segment's checksum, so a mutation reaches the header and
   option parsing behind the checksum check. *)
let tcp_fix_checksum wire =
  if String.length wire < 18 then wire
  else
    let b = Bytes.of_string wire in
    Bytes.set_uint16_be b 16 0;
    let sum =
      ref (word_sum_reference 0 (Bytes.to_string b) 0 (Bytes.length b))
    in
    while !sum lsr 16 <> 0 do
      sum := (!sum land 0xFFFF) + (!sum lsr 16)
    done;
    Bytes.set_uint16_be b 16 (lnot !sum land 0xFFFF);
    Bytes.to_string b

let prop_fuzz_tcp =
  QCheck2.Test.make ~count:3000 ~name:"Tcp_wire.decode of mutated segments"
    QCheck2.Gen.(quad gen_segment gen_mutations bool bool)
    (fun (seg, ms, repair, bare) ->
      (* without a payload, an option overrunning its region overruns
         the segment *)
      let seg = if bare then { seg with Tcp_wire.payload = "" } else seg in
      (* the data offset at 12, option lengths from 21 *)
      let wire =
        mutate_all ~lengths:[ 12; 21; 23; 25; 27; 29 ] (Tcp_wire.encode seg) ms
      in
      never_raises Tcp_wire.decode
        (if repair then tcp_fix_checksum wire else wire))

(* The committed goldens as mutated model files: [dune runtest] runs
   from _build/default/test, [dune exec] from the project root. *)
let golden_texts =
  lazy
    (List.map
       (fun (file, kind) ->
         let path =
           List.find Sys.file_exists
             [ "../examples/golden/" ^ file; "examples/golden/" ^ file ]
         in
         (kind, In_channel.with_open_bin path In_channel.input_all))
       Prognosis.Persist.
         [
           ("tcp.model", Tcp_model);
           ("quic-quiche-like.model", Quic_model);
           ("dtls.model", Dtls_model);
         ])

let prop_fuzz_model_text =
  QCheck2.Test.make ~count:1500 ~name:"Persist.parse_text of mutated goldens"
    QCheck2.Gen.(
      pair (gen 0 2)
        (list_size (gen 1 4)
           (oneof
              [
                map2 (fun p b -> Flip (p, b)) (gen 0 10_000) (gen 0 7);
                map (fun n -> Truncate n) (gen 0 10_000);
                map2 (fun p v -> Set_byte (p, v)) (gen 0 10_000) (gen 0 255);
              ])))
    (fun (g, ms) ->
      let kind, text = List.nth (Lazy.force golden_texts) g in
      never_raises
        (Prognosis.Persist.parse_text ~path:"(fuzz)" kind)
        (mutate_all ~lengths:[] text ms))

(* --- learning pipeline over random machines, 3-symbol alphabet --- *)

let gen_mealy3 =
  QCheck2.Gen.(
    let* size = gen 1 5 in
    let* delta = array_size (return size) (array_size (return 3) (gen 0 (size - 1))) in
    let* lambda = array_size (return size) (array_size (return 3) (gen 0 2)) in
    return (Mealy.make ~size ~initial:0 ~inputs:[| 'a'; 'b'; 'c' |] ~delta ~lambda))

let prop_learners_agree_3sym =
  QCheck2.Test.make ~count:40 ~name:"learners agree on 3-symbol machines"
    gen_mealy3
    (fun target ->
      let mq () = Oracle.of_sul (Sul.of_mealy target) in
      let eq = Eq_oracle.against target in
      let m1, _ = Lstar.learn ~inputs:(Mealy.inputs target) ~mq:(mq ()) ~eq () in
      let m2, _ = Ttt.learn ~inputs:(Mealy.inputs target) ~mq:(mq ()) ~eq () in
      Mealy.equivalent m1 m2 = None && Mealy.equivalent m1 target = None)

let prop_w_method_kills_output_mutants =
  QCheck2.Test.make ~count:60 ~name:"w-method suites kill single-output mutants"
    QCheck2.Gen.(triple gen_mealy3 (gen 0 100) (gen 0 2))
    (fun (m, spos, i) ->
      let size = Mealy.size m in
      let s = spos mod size in
      (* Mutant: flip one output to a fresh symbol. *)
      let mutant =
        Mealy.of_fun ~size ~initial:(Mealy.initial m) ~inputs:(Mealy.inputs m)
          ~step:(fun q x ->
            let q', o = Mealy.step m q x in
            if q = s && x = (Mealy.inputs m).(i) then (q', 99) else (q', o))
      in
      (* The mutated transition may be unreachable; only demand a kill
         when the machines genuinely differ. *)
      match Mealy.equivalent m mutant with
      | None -> true
      | Some _ ->
          (* The W-method guarantee covers implementations with at most
             |spec| + extra states; the (unminimized) mutant may have up
             to |m| states while the minimized spec has fewer. *)
          let spec = Mealy.minimize m in
          let extra_states = Mealy.size m - Mealy.size spec in
          let suite = Testing.w_method ~extra_states spec in
          List.exists (fun w -> Mealy.run m w <> Mealy.run mutant w) suite)

let prop_minimize_fixpoint =
  QCheck2.Test.make ~count:100 ~name:"minimize is a fixpoint" gen_mealy3 (fun m ->
      let m1 = Mealy.minimize m in
      let m2 = Mealy.minimize m1 in
      Mealy.size m1 = Mealy.size m2 && Mealy.equivalent m1 m2 = None)

(* --- the coded face and its symbol views --- *)

module Engine = Prognosis_exec.Engine
module Learn = Prognosis_learner.Learn

(* Random machines over string symbols. Every output cell is its own
   string, so equal outputs are physically distinct values. *)
let gen_string_mealy =
  QCheck2.Gen.(
    let* size = gen 1 5 in
    let* k = gen 1 4 in
    let* delta = array_size (return size) (array_size (return k) (gen 0 (size - 1))) in
    let* lambda = array_size (return size) (array_size (return k) (gen 0 2)) in
    let inputs = Array.init k (fun i -> "i" ^ string_of_int i) in
    let lambda = Array.map (Array.map (fun o -> "o" ^ string_of_int o)) lambda in
    return (Mealy.make ~size ~initial:0 ~inputs ~delta ~lambda))

let gen_machine_words =
  QCheck2.Gen.(
    let* m = gen_string_mealy in
    let k = Mealy.alphabet_size m in
    let+ words = list_size (gen 1 15) (list_size (gen 0 8) (gen 0 (k - 1))) in
    (m, List.map (List.map (fun i -> (Mealy.inputs m).(i))) words))

let prop_coded_face_matches_ask =
  QCheck2.Test.make ~count:100 ~name:"decoded coded answers == ask"
    gen_machine_words
    (fun (m, words) ->
      let agrees (mq : _ Oracle.membership) =
        let c = mq.Oracle.coded in
        List.for_all
          (fun w ->
            let ids = Oracle.Coder.intern_word c.Oracle.inputs w in
            Oracle.Coder.decode c.Oracle.outputs (c.Oracle.run ids) = mq.ask w)
          words
      in
      let engine = Engine.create ~factory:(fun _ -> Sul.of_mealy m) () in
      agrees (Oracle.of_sul (Sul.of_mealy m)) && agrees (Engine.membership engine))

(* The list-level W-method construction, as suites were built before
   they were coded: transition cover x middles x characterizing set,
   first occurrences in order. *)
let w_method_reference ~extra_states m =
  let seen = Hashtbl.create 64 in
  let mid = Testing.middle_words (Mealy.inputs m) extra_states in
  List.concat_map
    (fun p ->
      List.concat_map
        (fun middle -> List.map (fun s -> p @ middle @ s) (Mealy.characterizing_set m))
        mid)
    (Testing.transition_cover m)
  |> List.filter (fun w ->
         (not (Hashtbl.mem seen w)) && (Hashtbl.add seen w (); true))

let prop_w_method_list_is_decoded_ids =
  QCheck2.Test.make ~count:100 ~name:"w-method list suite == decoded id suite"
    QCheck2.Gen.(pair gen_string_mealy (gen 0 2))
    (fun (m, extra_states) ->
      let suite = Testing.w_method ~extra_states m in
      suite
      = List.map (Mealy.decode (Mealy.inputs m)) (Testing.w_method_ids ~extra_states m)
      && suite = w_method_reference ~extra_states m)

(* The id-level W/Wp suites as they were built before the trie
   builder: every candidate appended out in full, first occurrences
   kept through a hash table. The builder must return the same words
   in the same order. *)
let reference_dedup gen =
  let seen = Hashtbl.create 64 and acc = ref [] in
  gen (fun w ->
      if not (Hashtbl.mem seen w) then begin
        Hashtbl.add seen w ();
        acc := w :: !acc
      end);
  List.rev !acc

let reference_emit add mid suffixes prefix =
  List.iter
    (fun middle ->
      let pm = Array.append prefix middle in
      List.iter (fun s -> add (Array.append pm s)) (suffixes middle))
    mid

let reference_state_cover m =
  let words = Mealy.access_ids m and seen = Mealy.reachable m in
  List.filteri (fun s _ -> seen.(s)) (Array.to_list words)

let reference_transition_cover m =
  let n = Mealy.alphabet_size m in
  List.concat_map
    (fun w -> List.init n (fun i -> Array.append w [| i |]))
    (reference_state_cover m)

let w_method_ids_reference ~extra_states m =
  let mid = Testing.middle_ids (Mealy.alphabet_size m) extra_states in
  let w = Mealy.characterizing_ids m in
  reference_dedup (fun add ->
      List.iter
        (reference_emit add mid (fun _ -> w))
        (reference_transition_cover m))

let wp_method_ids_reference ~extra_states m =
  let w = Mealy.characterizing_ids m and p = Mealy.pack m in
  let states = List.init (Mealy.size m) Fun.id in
  let differs s word =
    let out = Mealy.Packed.run_ids p s word in
    List.exists (fun t -> t <> s && Mealy.Packed.run_ids p t word <> out) states
  in
  let ids = Array.init (Mealy.size m) (fun s -> List.filter (differs s) w) in
  let mid = Testing.middle_ids (Mealy.alphabet_size m) extra_states in
  let sc = reference_state_cover m in
  let target prefix middle =
    let w = Mealy.decode (Mealy.inputs m) (Array.append prefix middle) in
    match ids.(Mealy.state_after m w) with [] -> [ [||] ] | id -> id
  in
  reference_dedup (fun add ->
      List.iter (reference_emit add mid (fun _ -> w)) sc;
      List.iter
        (fun prefix ->
          if not (List.mem prefix sc) then
            reference_emit add mid (target prefix) prefix)
        (reference_transition_cover m))

(* Random machines over [k] inputs whose last [orphans] states no
   transition enters, so they are unreachable. *)
let gen_machine_over k =
  QCheck2.Gen.(
    let* size = gen 1 5 in
    let* orphans = gen 0 2 in
    let total = size + orphans in
    let row g = array_size (return total) (array_size (return k) g) in
    let* delta = row (gen 0 (size - 1)) in
    let* lambda = row (gen 0 2) in
    return
      (Mealy.make ~size:total ~initial:0 ~inputs:(Array.init k Fun.id) ~delta
         ~lambda))

(* One draw in fifteen is a one-state machine. *)
let gen_suite_machine = QCheck2.Gen.(gen 1 4 >>= gen_machine_over)

let prop_suite_builder_is_reference =
  QCheck2.Test.make ~count:300 ~name:"w/wp suite builder == reference"
    QCheck2.Gen.(pair gen_suite_machine (gen 0 2))
    (fun (m, extra_states) ->
      Testing.w_method_ids ~extra_states m
      = w_method_ids_reference ~extra_states m
      && Testing.wp_method_ids ~extra_states m
         = wp_method_ids_reference ~extra_states m)

(* The searches as they were written before Mealy and Model_diff ran
   each breadth-first search once: a hash-table product search for the
   shortest difference, and the queue BFS that reachability, canonical
   numbering and access words each ran on their own. *)
let shortest_difference_reference a b =
  let n = Mealy.alphabet_size a in
  let seen = Hashtbl.create 64 and queue = Queue.create () in
  Hashtbl.add seen (Mealy.initial a, Mealy.initial b) ();
  Queue.add (Mealy.initial a, Mealy.initial b, []) queue;
  let result = ref None in
  while !result = None && not (Queue.is_empty queue) do
    let sa, sb, path = Queue.pop queue in
    let i = ref 0 in
    while !result = None && !i < n do
      let sa', oa = Mealy.step_idx a sa !i in
      let sb', ob = Mealy.step_idx b sb !i in
      if oa <> ob then result := Some (List.rev ((Mealy.inputs a).(!i) :: path))
      else if not (Hashtbl.mem seen (sa', sb')) then begin
        Hashtbl.add seen (sa', sb') ();
        Queue.add (sa', sb', (Mealy.inputs a).(!i) :: path) queue
      end;
      incr i
    done
  done;
  !result

(* One word per disagreeing product edge, exploring past them. *)
let differences_reference ~max a b =
  let n = Mealy.alphabet_size a in
  let seen = Hashtbl.create 64 and queue = Queue.create () in
  let found = ref [] and count = ref 0 in
  Hashtbl.add seen (Mealy.initial a, Mealy.initial b) ();
  Queue.add (Mealy.initial a, Mealy.initial b, []) queue;
  while (not (Queue.is_empty queue)) && !count < max do
    let sa, sb, path = Queue.pop queue in
    for i = 0 to n - 1 do
      if !count < max then begin
        let sa', oa = Mealy.step_idx a sa i in
        let sb', ob = Mealy.step_idx b sb i in
        if oa <> ob then begin
          found := List.rev ((Mealy.inputs a).(i) :: path) :: !found;
          incr count
        end;
        if not (Hashtbl.mem seen (sa', sb')) then begin
          Hashtbl.add seen (sa', sb') ();
          Queue.add (sa', sb', (Mealy.inputs a).(i) :: path) queue
        end
      end
    done
  done;
  List.rev !found

(* The reachable states in discovery order, and each state's access
   word ([None]: unreachable). *)
let state_bfs_reference m =
  let words = Array.make (Mealy.size m) None in
  let queue = Queue.create () and order = ref [] in
  words.(Mealy.initial m) <- Some [||];
  Queue.add (Mealy.initial m) queue;
  while not (Queue.is_empty queue) do
    let s = Queue.pop queue in
    order := s :: !order;
    let w = Option.get words.(s) in
    for i = 0 to Mealy.alphabet_size m - 1 do
      let s' = fst (Mealy.step_idx m s i) in
      if words.(s') = None then begin
        words.(s') <- Some (Array.append w [| i |]);
        Queue.add s' queue
      end
    done
  done;
  (Array.of_list (List.rev !order), words)

let prop_state_bfs_is_reference =
  QCheck2.Test.make ~count:300
    ~name:"reachable, access_ids, canonicalize == queue BFS" gen_suite_machine
    (fun m ->
      let order, words = state_bfs_reference m in
      let rank = Array.make (Mealy.size m) (-1) in
      Array.iteri (fun q s -> rank.(s) <- q) order;
      let c = Mealy.canonicalize m in
      let renumbered q i =
        let s', o = Mealy.step_idx m order.(q) i in
        Mealy.step_idx c q i = (rank.(s'), o)
      in
      Mealy.reachable m = Array.map Option.is_some words
      && Mealy.access_ids m = Array.map (Option.value ~default:[||]) words
      && Mealy.size c = Array.length order
      && Mealy.initial c = 0
      && List.for_all
           (fun q -> List.for_all (renumbered q) (List.init (Mealy.alphabet_size m) Fun.id))
           (List.init (Mealy.size c) Fun.id))

(* Pairs over one alphabet: a machine with itself, with its canonical
   form (equivalent, numbered apart), or with an independent draw. *)
let gen_machine_pair =
  QCheck2.Gen.(
    let* k = gen 1 4 in
    let* a = gen_machine_over k in
    let* b =
      oneof [ return a; return (Mealy.canonicalize a); gen_machine_over k ]
    in
    let* max = gen 0 6 in
    return (a, b, max))

let prop_product_searches_are_reference =
  QCheck2.Test.make ~count:500
    ~name:"Model_diff.shortest_difference, differences == hash-table BFS"
    gen_machine_pair
    (fun (a, b, max) ->
      let word w = w.Model_diff.word in
      Option.map word (Model_diff.shortest_difference a b)
      = shortest_difference_reference a b
      && List.map word (Model_diff.differences ~max a b)
         = differences_reference ~max a b)

(* The learner's alphabet is a structurally equal, physically distinct
   copy of the target's, so every symbol the table SUL steps and every
   output the engine codes misses the coders' physical probe and takes
   the hash fallback. *)
let prop_engine_learns_copied_symbols =
  QCheck2.Test.make ~count:40 ~name:"engine learns over copied symbols"
    gen_string_mealy
    (fun target ->
      let inputs = Array.map (fun x -> Bytes.to_string (Bytes.of_string x)) (Mealy.inputs target) in
      List.for_all
        (fun (batch, workers) ->
          let config = { Engine.default with Engine.batch; workers } in
          let engine = Engine.create ~config ~factory:(fun _ -> Sul.of_mealy target) () in
          let r =
            Learn.run_mq
              ~cache_stats:(fun () -> Engine.cache_stats engine)
              ~inputs ~mq:(Engine.membership engine)
              ~eq:
                (Eq_oracle.combine
                   [ Eq_oracle.w_method ~extra_states:1 (); Eq_oracle.against target ])
              ()
          in
          Mealy.equivalent r.Learn.model target = None)
        [ (true, 1); (false, 1); (true, 3); (false, 3) ])

(* pipeline.mli: without [?exec] the engine asks one query at a time,
   the query stream of a plain cached SUL oracle. The reference is
   [Learn.run_mq] over [Cache.wrap], what the deleted [Learn.run] was. *)
let prop_pipeline_counters_match_cached_oracle =
  QCheck2.Test.make ~count:40
    ~name:"Pipeline.learn counters == Learn.run"
    gen_string_mealy
    (fun target ->
      let eq () =
        let rng = Rng.create 7L in
        Eq_oracle.combine
          [
            Eq_oracle.w_method ~extra_states:1 ();
            Eq_oracle.random_words ~rng ~max_tests:50 ~min_len:1 ~max_len:6;
          ]
      in
      let inputs = Mealy.inputs target in
      let c = Cache.create () in
      let r =
        Learn.run_mq
          ~cache_stats:(fun () -> (Cache.hits c, Cache.misses c))
          ~inputs
          ~mq:(Cache.wrap c (Oracle.of_sul (Sul.of_mealy target)))
          ~eq:(eq ()) ()
      in
      match
        Prognosis.Pipeline.learn ~subject:"random" ~seed:1L
          ~algorithm:Learn.Ttt_tree ~inputs
          ~factory:(fun ~seed:_ ~workers:_ _ -> Sul.of_mealy target)
          ~eq:(eq ()) ()
      with
      | Error _ -> false
      | Ok (_, report) ->
          let s = r.Learn.stats in
          report.Prognosis.Report.membership_queries = s.Oracle.membership_queries
          && report.membership_symbols = s.membership_symbols
          && report.test_words = s.test_words
          && report.equivalence_rounds = r.rounds)

let () =
  Alcotest.run "properties"
    [
      ( "varint",
        List.map QCheck_alcotest.to_alcotest
          [ prop_varint_roundtrip; prop_varint_sequence; prop_varint_length_monotone ] );
      ( "tcp-wire",
        List.map QCheck_alcotest.to_alcotest
          [ prop_tcp_roundtrip; prop_tcp_bitflip_detected ] );
      ( "quic-frames",
        List.map QCheck_alcotest.to_alcotest
          [ prop_frames_roundtrip; prop_padding_coalesces ] );
      ( "quic-packets",
        List.map QCheck_alcotest.to_alcotest
          [ prop_packet_roundtrip; prop_packet_bitflip_rejected ] );
      ( "crypto",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_crypto_roundtrip;
            prop_crypto_pn_binding;
            prop_crypto_bitflip_rejected;
            prop_open_slice;
            prop_seal_behind_header;
            prop_fold_concat;
            prop_derive_key;
          ] );
      ( "dtls-crypto",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_dtls_crypto_roundtrip;
            prop_dtls_crypto_epoch_seq_binding;
            prop_dtls_crypto_bitflip_rejected;
            prop_dtls_crypto_direction_bound;
          ] );
      ( "dtls-wire",
        List.map QCheck_alcotest.to_alcotest
          [ prop_dtls_handshake_roundtrip; prop_dtls_record_roundtrip ] );
      ( "inet",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_inet_udp_roundtrip;
            prop_inet_bitflip_detected;
            prop_inet_wrap_udp_matches_layers;
            prop_inet_unwrap_udp_matches_layers;
            prop_inet_sum_lanes;
          ] );
      ( "fuzz",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_fuzz_quic_packet;
            prop_fuzz_frames;
            prop_fuzz_dtls;
            prop_fuzz_tcp;
            prop_fuzz_model_text;
          ] );
      ( "learning",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_learners_agree_3sym;
            prop_w_method_kills_output_mutants;
            prop_minimize_fixpoint;
            prop_coded_face_matches_ask;
            prop_w_method_list_is_decoded_ids;
            prop_suite_builder_is_reference;
            prop_state_bfs_is_reference;
            prop_product_searches_are_reference;
            prop_engine_learns_copied_symbols;
            prop_pipeline_counters_match_cached_oracle;
          ] );
    ]
