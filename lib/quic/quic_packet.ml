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

let add_u32 buf v =
  Buffer.add_char buf (Char.chr ((v lsr 24) land 0xFF));
  Buffer.add_char buf (Char.chr ((v lsr 16) land 0xFF));
  Buffer.add_char buf (Char.chr ((v lsr 8) land 0xFF));
  Buffer.add_char buf (Char.chr (v land 0xFF))

let get_u32 s off =
  (Char.code s.[off] lsl 24)
  lor (Char.code s.[off + 1] lsl 16)
  lor (Char.code s.[off + 2] lsl 8)
  lor Char.code s.[off + 3]

let add_cid buf cid =
  Buffer.add_char buf (Char.chr (String.length cid));
  Buffer.add_string buf cid

let retry_integrity_tag ~dcid ~scid ~token =
  let h =
    Prognosis_sul.Sim_crypto.hash
      (String.concat "|" [ "retry"; dcid; scid; token ])
  in
  String.init 8 (fun i -> Char.unsafe_chr ((h lsr (8 * i)) land 0xFF))

let encode ~crypto ~sender p =
  match p.ptype with
  | Version_negotiation ->
      let buf = Buffer.create 64 in
      Buffer.add_char buf '\x80';
      add_u32 buf 0;
      add_cid buf p.dcid;
      add_cid buf p.scid;
      add_u32 buf p.version;
      Some (Buffer.contents buf)
  | Retry ->
      let buf = Buffer.create 64 in
      Buffer.add_char buf (Char.chr (0x80 lor 0x40 lor (long_type_bits Retry lsl 4)));
      add_u32 buf p.version;
      add_cid buf p.dcid;
      add_cid buf p.scid;
      Buffer.add_string buf p.token;
      Buffer.add_string buf (retry_integrity_tag ~dcid:p.dcid ~scid:p.scid ~token:p.token);
      Some (Buffer.contents buf)
  | Stateless_reset -> invalid_arg "use encode_stateless_reset"
  | Initial | Zero_rtt | Handshake ->
      let header = Buffer.create 64 in
      Buffer.add_char header
        (Char.chr (0x80 lor 0x40 lor (long_type_bits p.ptype lsl 4) lor 0x03));
      add_u32 header p.version;
      add_cid header p.dcid;
      add_cid header p.scid;
      if p.ptype = Initial then begin
        Varint.encode header (String.length p.token);
        Buffer.add_string header p.token
      end;
      let payload = Frame.encode_all p.frames in
      Varint.encode header (4 + String.length payload + Quic_crypto.tag_length);
      add_u32 header p.pn;
      let header = Buffer.contents header in
      let lvl =
        match level p.ptype with Some l -> l | None -> assert false
      in
      (match Quic_crypto.seal crypto lvl sender ~pn:p.pn ~header payload with
      | None -> None
      | Some sealed -> Some (header ^ sealed))
  | Short ->
      let header = Buffer.create 16 in
      let phase_bit =
        if Quic_crypto.application_phase crypto land 1 = 1 then 0x04 else 0
      in
      Buffer.add_char header (Char.chr (0x40 lor phase_bit lor 0x03));
      Buffer.add_string header p.dcid (* fixed length, no prefix *);
      add_u32 header p.pn;
      let header = Buffer.contents header in
      let payload = Frame.encode_all p.frames in
      (match
         Quic_crypto.seal crypto Quic_crypto.Application_level sender ~pn:p.pn
           ~header payload
       with
      | None -> None
      | Some sealed -> Some (header ^ sealed))

let encode_stateless_reset ~rand ~token =
  (* First byte mimics a short header; at least 22 unpredictable bytes
     precede the 16-byte token. *)
  let bits = rand 22 in
  let first = Char.chr (0x40 lor (Char.code bits.[0] land 0x3F)) in
  String.make 1 first ^ String.sub bits 1 (String.length bits - 1) ^ token

exception Bad of string

type decode_result =
  | Decoded of t
  | Reset_detected of string
  | Undecodable of string

let decode ~crypto ~sender ~reset_tokens data =
  let len = String.length data in
  let need n off = if off + n > len then raise (Bad "truncated") in
  let read_cid off =
    need 1 off;
    let n = Char.code data.[off] in
    need n (off + 1);
    (String.sub data (off + 1) n, off + 1 + n)
  in
  try
    if len = 0 then Undecodable "empty datagram"
    else begin
      let first = Char.code data.[0] in
      if first land 0x80 <> 0 then begin
        (* Long header. *)
        need 5 0;
        let version = get_u32 data 1 in
        let dcid, off = read_cid 5 in
        let scid, off = read_cid off in
        if version = 0 then begin
          (* Version negotiation: list of supported versions. *)
          need 4 off;
          let supported = get_u32 data off in
          Decoded
            (make Version_negotiation ~version:supported ~dcid ~scid)
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
              let rest = String.sub data off (len - off) in
              if String.length rest < 8 then raise (Bad "retry too short");
              let token = String.sub rest 0 (String.length rest - 8) in
              let tag = String.sub rest (String.length rest - 8) 8 in
              if retry_integrity_tag ~dcid ~scid ~token <> tag then
                Undecodable "retry integrity check failed"
              else Decoded (make Retry ~dcid ~scid ~token)
          | _ ->
              let token, off =
                if ptype = Initial then begin
                  let n, off = Varint.decode data off in
                  need n off;
                  (String.sub data off n, off + n)
                end
                else ("", off)
              in
              let length, off = Varint.decode data off in
              need length off;
              need 4 off;
              let pn = get_u32 data off in
              let header = String.sub data 0 (off + 4) in
              let sealed = String.sub data (off + 4) (length - 4) in
              let lvl =
                match level ptype with Some l -> l | None -> assert false
              in
              (match Quic_crypto.open_ crypto lvl sender ~pn ~header sealed with
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
        let detect_reset () =
          if len >= 16 then begin
            let tail = String.sub data (len - 16) 16 in
            if List.mem tail reset_tokens then Some tail else None
          end
          else None
        in
        if len < 1 + cid_length + 4 + Quic_crypto.tag_length then
          match detect_reset () with
          | Some token -> Reset_detected token
          | None -> Undecodable "short packet too short"
        else begin
          let dcid = String.sub data 1 cid_length in
          let pn = get_u32 data (1 + cid_length) in
          let header = String.sub data 0 (1 + cid_length + 4) in
          let sealed =
            String.sub data (1 + cid_length + 4) (len - 1 - cid_length - 4)
          in
          let phase_bit = (first lsr 2) land 1 in
          let our_phase = Quic_crypto.application_phase crypto land 1 in
          let payload =
            if phase_bit = our_phase then
              Quic_crypto.open_ crypto Quic_crypto.Application_level sender ~pn
                ~header sealed
            else begin
              (* Peer-initiated key update (RFC 9001 §6): verify against
                 the next key generation and commit on success. *)
              match
                Quic_crypto.open_updated_application crypto sender ~pn ~header
                  sealed
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
              | Ok frames -> Decoded (make Short ~dcid ~pn ~frames))
          | None -> (
              match detect_reset () with
              | Some token -> Reset_detected token
              | None -> Undecodable "decryption failed")
        end
      end
    end
  with
  | Bad msg -> Undecodable msg
  | Invalid_argument msg -> Undecodable msg
