type symbol =
  | Initial_crypto
  | Initial_ack_hsd
  | Handshake_ack_crypto
  | Handshake_ack_hsd
  | Short_ack_flow
  | Short_ack_stream
  | Short_ack_hsd
  | Short_ack_ping
  | Short_ack_path_challenge
  | Short_ack_path_response

let all =
  [|
    Initial_crypto;
    Initial_ack_hsd;
    Handshake_ack_crypto;
    Handshake_ack_hsd;
    Short_ack_flow;
    Short_ack_stream;
    Short_ack_hsd;
  |]

let extended =
  Array.append all
    [| Short_ack_ping; Short_ack_path_challenge; Short_ack_path_response |]

let to_string = function
  | Initial_crypto -> "INITIAL(?,?)[CRYPTO]"
  | Initial_ack_hsd -> "INITIAL(?,?)[ACK,HANDSHAKE_DONE]"
  | Handshake_ack_crypto -> "HANDSHAKE(?,?)[ACK,CRYPTO]"
  | Handshake_ack_hsd -> "HANDSHAKE(?,?)[ACK,HANDSHAKE_DONE]"
  | Short_ack_flow -> "SHORT(?,?)[ACK,MAX_DATA,MAX_STREAM_DATA]"
  | Short_ack_stream -> "SHORT(?,?)[ACK,STREAM]"
  | Short_ack_hsd -> "SHORT(?,?)[ACK,HANDSHAKE_DONE]"
  | Short_ack_ping -> "SHORT(?,?)[ACK,PING]"
  | Short_ack_path_challenge -> "SHORT(?,?)[ACK,PATH_CHALLENGE]"
  | Short_ack_path_response -> "SHORT(?,?)[ACK,PATH_RESPONSE]"

let pp fmt s = Format.pp_print_string fmt (to_string s)

type apacket = { ptype : Quic_packet.ptype; frames : Frame.kind list }
type output = apacket list

let apacket_to_string a =
  Printf.sprintf "%s(?,?)[%s]"
    (Quic_packet.ptype_to_string a.ptype)
    (String.concat "," (List.map Frame.kind_to_string a.frames))

let output_to_string = function
  | [] -> "NIL"
  | packets -> "{" ^ String.concat ", " (List.map apacket_to_string packets) ^ "}"

let pp_output fmt o = Format.pp_print_string fmt (output_to_string o)

let rec kinds = function
  | [] -> []
  | f :: rest -> (
      match Frame.kind f with
      | Frame.K_padding -> kinds rest
      | k -> k :: kinds rest)

let abstract_packet (p : Quic_packet.t) =
  { ptype = p.Quic_packet.ptype; frames = kinds p.Quic_packet.frames }

let abstract_reset = { ptype = Quic_packet.Stateless_reset; frames = [] }
