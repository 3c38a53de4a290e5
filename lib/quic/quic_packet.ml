type ptype =
  | Initial
  | Zero_rtt
  | Handshake
  | Retry
  | Version_negotiation
  | Short
  | Stateless_reset

let ptype_to_string = function
  | Initial -> "INITIAL"
  | Zero_rtt -> "0RTT"
  | Handshake -> "HANDSHAKE"
  | Retry -> "RETRY"
  | Version_negotiation -> "VERSION_NEGOTIATION"
  | Short -> "SHORT"
  | Stateless_reset -> "STATELESS_RESET"

let all_ptypes =
  [ Initial; Zero_rtt; Handshake; Retry; Version_negotiation; Short; Stateless_reset ]

let cid_length = 8
let draft29 = 0xff00001d

type t = {
  ptype : ptype;
  version : int;
  dcid : string;
  scid : string;
  token : string;
  pn : int;
  frames : Frame.t list;
}

let pp fmt p =
  Format.fprintf fmt "%s(pn=%d)[%a]" (ptype_to_string p.ptype) p.pn
    (Format.pp_print_list
       ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ",")
       Frame.pp)
    p.frames

let make ?(version = draft29) ?(scid = "") ?(token = "") ?(pn = -1) ?(frames = [])
    ptype ~dcid =
  { ptype; version; dcid; scid; token; pn; frames }

let level = function
  | Initial -> Some Quic_crypto.Initial_level
  | Handshake -> Some Quic_crypto.Handshake_level
  | Zero_rtt | Short -> Some Quic_crypto.Application_level
  | Retry | Version_negotiation | Stateless_reset -> None

let long_type_bits = function
  | Initial -> 0
  | Zero_rtt -> 1
  | Handshake -> 2
  | Retry -> 3
  | Short | Version_negotiation | Stateless_reset -> invalid_arg "not a long type"

let get_u32 s off =
  (Char.code s.[off] lsl 24)
  lor (Char.code s.[off + 1] lsl 16)
  lor (Char.code s.[off + 2] lsl 8)
  lor Char.code s.[off + 3]

(* Writers into the packet buffer; each returns the offset after what
   it wrote. *)
let put_u8 b off v =
  Bytes.set b off (Char.chr v);
  off + 1

let put_u32 b off v =
  Bytes.set_uint16_be b off ((v lsr 16) land 0xFFFF);
  Bytes.set_uint16_be b (off + 2) (v land 0xFFFF);
  off + 4

let put_string b off s =
  Bytes.blit_string s 0 b off (String.length s);
  off + String.length s

let put_cid b off cid = put_string b (put_u8 b off (String.length cid)) cid

let retry_integrity_tag ~dcid ~scid ~token =
  let h =
    Prognosis_sul.Sim_crypto.hash
      (String.concat "|" [ "retry"; dcid; scid; token ])
  in
  String.init 8 (fun i -> Char.unsafe_chr ((h lsr (8 * i)) land 0xFF))

(* A protected packet is built in one buffer: the header, the frames
   behind it, and room for the tag, which [Quic_crypto.seal_into] fills
   while it encrypts the frames in place. [packet_buffer] sizes it;
   [seal] writes the frames behind the header already written. *)
let packet_buffer ~header_len ~payload =
  Bytes.create (header_len + payload + Quic_crypto.tag_length)

let seal ~crypto ~sender level p b ~header_len =
  ignore (Frame.write_all b header_len p.frames);
  if Quic_crypto.seal_into crypto level sender ~pn:p.pn b ~header_len then
    Some (Bytes.unsafe_to_string b)
  else None

let encode ~crypto ~sender p =
  let cids = 2 + String.length p.dcid + String.length p.scid in
  match p.ptype with
  | Version_negotiation ->
      let b = Bytes.create (1 + 4 + cids + 4) in
      let off = put_u32 b (put_u8 b 0 0x80) 0 in
      ignore (put_u32 b (put_cid b (put_cid b off p.dcid) p.scid) p.version);
      Some (Bytes.unsafe_to_string b)
  | Retry ->
      let tag = retry_integrity_tag ~dcid:p.dcid ~scid:p.scid ~token:p.token in
      let b = Bytes.create (1 + 4 + cids + String.length p.token + 8) in
      let off = put_u8 b 0 (0x80 lor 0x40 lor (long_type_bits Retry lsl 4)) in
      let off = put_cid b (put_cid b (put_u32 b off p.version) p.dcid) p.scid in
      ignore (put_string b (put_string b off p.token) tag);
      Some (Bytes.unsafe_to_string b)
  | Stateless_reset -> invalid_arg "use encode_stateless_reset"
  | Initial | Zero_rtt | Handshake ->
      let lvl = match level p.ptype with Some l -> l | None -> assert false in
      let token =
        if p.ptype = Initial then
          Varint.encoded_length (String.length p.token) + String.length p.token
        else 0
      in
      let payload = Frame.encoded_length p.frames in
      let length = 4 + payload + Quic_crypto.tag_length in
      let header_len =
        1 + 4 + cids + token + Varint.encoded_length length + 4
      in
      let b = packet_buffer ~header_len ~payload in
      let off =
        put_u8 b 0 (0x80 lor 0x40 lor (long_type_bits p.ptype lsl 4) lor 0x03)
      in
      let off = put_cid b (put_cid b (put_u32 b off p.version) p.dcid) p.scid in
      let off =
        if p.ptype = Initial then
          put_string b (Varint.write b off (String.length p.token)) p.token
        else off
      in
      ignore (put_u32 b (Varint.write b off length) p.pn);
      seal ~crypto ~sender lvl p b ~header_len
  | Short ->
      let phase_bit =
        if Quic_crypto.application_phase crypto land 1 = 1 then 0x04 else 0
      in
      let header_len = 1 + String.length p.dcid + 4 in
      let b =
        packet_buffer ~header_len ~payload:(Frame.encoded_length p.frames)
      in
      let off = put_u8 b 0 (0x40 lor phase_bit lor 0x03) in
      (* fixed-length dcid, no prefix *)
      ignore (put_u32 b (put_string b off p.dcid) p.pn);
      seal ~crypto ~sender Quic_crypto.Application_level p b ~header_len

let encode_stateless_reset ~rand ~token =
  (* First byte mimics a short header; at least 22 unpredictable bytes
     precede the 16-byte token. *)
  let bits = rand 22 in
  let n = String.length bits in
  let b = Bytes.create (n + String.length token) in
  Bytes.blit_string bits 0 b 0 n;
  Bytes.set b 0 (Char.chr (0x40 lor (Char.code bits.[0] land 0x3F)));
  Bytes.blit_string token 0 b n (String.length token);
  Bytes.unsafe_to_string b

exception Bad of string

type decode_result =
  | Decoded of t
  | Reset_detected of string
  | Undecodable of string

let need data n off =
  if off + n > String.length data then raise (Bad "truncated")

let read_cid data off =
  need data 1 off;
  let n = Char.code data.[off] in
  need data n (off + 1);
  String.sub data (off + 1) n

(* A datagram ending in one of [reset_tokens] is a stateless reset; the
   tail is compared in place. *)
let rec tail_equal data off token i =
  i = String.length token
  || String.unsafe_get data (off + i) = String.unsafe_get token i
     && tail_equal data off token (i + 1)

let rec reset_token data = function
  | [] -> None
  | token :: rest ->
      let off = String.length data - 16 in
      if off >= 0 && String.length token = 16 && tail_equal data off token 0
      then Some token
      else reset_token data rest

let decode ~crypto ~sender ~reset_tokens data =
  let len = String.length data in
  try
    if len = 0 then Undecodable "empty datagram"
    else begin
      let first = Char.code data.[0] in
      if first land 0x80 <> 0 then begin
        (* Long header. *)
        need data 5 0;
        let version = get_u32 data 1 in
        let dcid = read_cid data 5 in
        let scid = read_cid data (6 + String.length dcid) in
        let off = 7 + String.length dcid + String.length scid in
        if version = 0 then begin
          (* Version negotiation: list of supported versions. *)
          need data 4 off;
          let supported = get_u32 data off in
          Decoded
            {
              ptype = Version_negotiation;
              version = supported;
              dcid;
              scid;
              token = "";
              pn = -1;
              frames = [];
            }
        end
        else begin
          let ptype =
            match (first lsr 4) land 0x03 with
            | 0 -> Initial
            | 1 -> Zero_rtt
            | 2 -> Handshake
            | _ -> Retry
          in
          match ptype with
          | Retry ->
              if len - off < 8 then raise (Bad "retry too short");
              let token = String.sub data off (len - off - 8) in
              let tag = String.sub data (len - 8) 8 in
              if retry_integrity_tag ~dcid ~scid ~token <> tag then
                Undecodable "retry integrity check failed"
              else Decoded (make Retry ~dcid ~scid ~token)
          | _ ->
              let pos = ref off in
              let token =
                if ptype = Initial then begin
                  let n = Varint.read data pos in
                  let off = !pos in
                  need data n off;
                  pos := off + n;
                  if n = 0 then "" else String.sub data off n
                end
                else ""
              in
              let length = Varint.read data pos in
              let off = !pos in
              need data length off;
              need data 4 off;
              let pn = get_u32 data off in
              let lvl =
                match level ptype with Some l -> l | None -> assert false
              in
              (match
                 Quic_crypto.open_ crypto lvl sender ~pn data
                   ~header_len:(off + 4) ~len:(length - 4)
               with
              | None -> Undecodable "decryption failed"
              | Some payload -> (
                  match Frame.decode_all payload with
                  | Error e -> Undecodable ("bad frames: " ^ e)
                  | Ok frames ->
                      Decoded { ptype; version; dcid; scid; token; pn; frames }))
        end
      end
      else begin
        (* Short header (or stateless reset). *)
        if len < 1 + cid_length + 4 + Quic_crypto.tag_length then
          match reset_token data reset_tokens with
          | Some token -> Reset_detected token
          | None -> Undecodable "short packet too short"
        else begin
          let dcid = String.sub data 1 cid_length in
          let pn = get_u32 data (1 + cid_length) in
          let header_len = 1 + cid_length + 4 in
          let sealed = len - header_len in
          let phase_bit = (first lsr 2) land 1 in
          let our_phase = Quic_crypto.application_phase crypto land 1 in
          let payload =
            if phase_bit = our_phase then
              Quic_crypto.open_ crypto Quic_crypto.Application_level sender ~pn
                data ~header_len ~len:sealed
            else begin
              (* Peer-initiated key update (RFC 9001 §6): verify against
                 the next key generation and commit on success. *)
              match
                Quic_crypto.open_updated_application crypto sender ~pn data
                  ~header_len ~len:sealed
              with
              | Some plaintext ->
                  Quic_crypto.update_application crypto;
                  Some plaintext
              | None -> None
            end
          in
          match payload with
          | Some payload -> (
              match Frame.decode_all payload with
              | Error e -> Undecodable ("bad frames: " ^ e)
              | Ok frames ->
                  Decoded
                    {
                      ptype = Short;
                      version = draft29;
                      dcid;
                      scid = "";
                      token = "";
                      pn;
                      frames;
                    })
          | None -> (
              match reset_token data reset_tokens with
              | Some token -> Reset_detected token
              | None -> Undecodable "decryption failed")
        end
      end
    end
  with
  | Bad msg -> Undecodable msg
  | Invalid_argument msg -> Undecodable msg
