type t =
  | Padding of int
  | Ping
  | Ack of { largest : int; delay : int; first_range : int }
  | Reset_stream of { stream_id : int; error : int; final_size : int }
  | Stop_sending of { stream_id : int; error : int }
  | Crypto of { offset : int; data : string }
  | New_token of string
  | Stream of { id : int; offset : int; data : string; fin : bool }
  | Max_data of int
  | Max_stream_data of { stream_id : int; max : int }
  | Max_streams of { bidi : bool; max : int }
  | Data_blocked of int
  | Stream_data_blocked of { stream_id : int; max : int }
  | Streams_blocked of { bidi : bool; max : int }
  | New_connection_id of {
      seq : int;
      retire_prior : int;
      cid : string;
      reset_token : string;
    }
  | Retire_connection_id of int
  | Path_challenge of string
  | Path_response of string
  | Connection_close of { error : int; frame_type : int; reason : string; app : bool }
  | Handshake_done

type kind =
  | K_padding
  | K_ping
  | K_ack
  | K_reset_stream
  | K_stop_sending
  | K_crypto
  | K_new_token
  | K_stream
  | K_max_data
  | K_max_stream_data
  | K_max_streams
  | K_data_blocked
  | K_stream_data_blocked
  | K_streams_blocked
  | K_new_connection_id
  | K_retire_connection_id
  | K_path_challenge
  | K_path_response
  | K_connection_close
  | K_handshake_done

let kind = function
  | Padding _ -> K_padding
  | Ping -> K_ping
  | Ack _ -> K_ack
  | Reset_stream _ -> K_reset_stream
  | Stop_sending _ -> K_stop_sending
  | Crypto _ -> K_crypto
  | New_token _ -> K_new_token
  | Stream _ -> K_stream
  | Max_data _ -> K_max_data
  | Max_stream_data _ -> K_max_stream_data
  | Max_streams _ -> K_max_streams
  | Data_blocked _ -> K_data_blocked
  | Stream_data_blocked _ -> K_stream_data_blocked
  | Streams_blocked _ -> K_streams_blocked
  | New_connection_id _ -> K_new_connection_id
  | Retire_connection_id _ -> K_retire_connection_id
  | Path_challenge _ -> K_path_challenge
  | Path_response _ -> K_path_response
  | Connection_close _ -> K_connection_close
  | Handshake_done -> K_handshake_done

let kind_to_string = function
  | K_padding -> "PADDING"
  | K_ping -> "PING"
  | K_ack -> "ACK"
  | K_reset_stream -> "RESET_STREAM"
  | K_stop_sending -> "STOP_SENDING"
  | K_crypto -> "CRYPTO"
  | K_new_token -> "NEW_TOKEN"
  | K_stream -> "STREAM"
  | K_max_data -> "MAX_DATA"
  | K_max_stream_data -> "MAX_STREAM_DATA"
  | K_max_streams -> "MAX_STREAMS"
  | K_data_blocked -> "DATA_BLOCKED"
  | K_stream_data_blocked -> "STREAM_DATA_BLOCKED"
  | K_streams_blocked -> "STREAMS_BLOCKED"
  | K_new_connection_id -> "NEW_CONNECTION_ID"
  | K_retire_connection_id -> "RETIRE_CONNECTION_ID"
  | K_path_challenge -> "PATH_CHALLENGE"
  | K_path_response -> "PATH_RESPONSE"
  | K_connection_close -> "CONNECTION_CLOSE"
  | K_handshake_done -> "HANDSHAKE_DONE"

let all_kinds =
  [
    K_padding;
    K_ping;
    K_ack;
    K_reset_stream;
    K_stop_sending;
    K_crypto;
    K_new_token;
    K_stream;
    K_max_data;
    K_max_stream_data;
    K_max_streams;
    K_data_blocked;
    K_stream_data_blocked;
    K_streams_blocked;
    K_new_connection_id;
    K_retire_connection_id;
    K_path_challenge;
    K_path_response;
    K_connection_close;
    K_handshake_done;
  ]

let pp fmt f =
  match f with
  | Padding n -> Format.fprintf fmt "PADDING(%d)" n
  | Ping -> Format.fprintf fmt "PING"
  | Ack { largest; _ } -> Format.fprintf fmt "ACK(largest=%d)" largest
  | Reset_stream { stream_id; _ } -> Format.fprintf fmt "RESET_STREAM(%d)" stream_id
  | Stop_sending { stream_id; _ } -> Format.fprintf fmt "STOP_SENDING(%d)" stream_id
  | Crypto { offset; data } ->
      Format.fprintf fmt "CRYPTO(off=%d,len=%d)" offset (String.length data)
  | New_token _ -> Format.fprintf fmt "NEW_TOKEN"
  | Stream { id; offset; data; fin } ->
      Format.fprintf fmt "STREAM(%d,off=%d,len=%d%s)" id offset (String.length data)
        (if fin then ",fin" else "")
  | Max_data v -> Format.fprintf fmt "MAX_DATA(%d)" v
  | Max_stream_data { stream_id; max } ->
      Format.fprintf fmt "MAX_STREAM_DATA(%d,%d)" stream_id max
  | Max_streams { max; _ } -> Format.fprintf fmt "MAX_STREAMS(%d)" max
  | Data_blocked v -> Format.fprintf fmt "DATA_BLOCKED(%d)" v
  | Stream_data_blocked { stream_id; max } ->
      Format.fprintf fmt "STREAM_DATA_BLOCKED(%d,%d)" stream_id max
  | Streams_blocked { max; _ } -> Format.fprintf fmt "STREAMS_BLOCKED(%d)" max
  | New_connection_id { seq; _ } -> Format.fprintf fmt "NEW_CONNECTION_ID(seq=%d)" seq
  | Retire_connection_id seq -> Format.fprintf fmt "RETIRE_CONNECTION_ID(%d)" seq
  | Path_challenge _ -> Format.fprintf fmt "PATH_CHALLENGE"
  | Path_response _ -> Format.fprintf fmt "PATH_RESPONSE"
  | Connection_close { error; _ } -> Format.fprintf fmt "CONNECTION_CLOSE(%d)" error
  | Handshake_done -> Format.fprintf fmt "HANDSHAKE_DONE"

let is_ack_eliciting f =
  match kind f with
  | K_ack | K_padding | K_connection_close -> false
  | _ -> true

(* Frames are written straight into the packet buffer: [size] is the
   exact byte count [write] produces, so the packet header (whose
   Length field covers the payload) can be written first. *)
let vlen = Varint.encoded_length
let bytes_size s = vlen (String.length s) + String.length s

let size f =
  match f with
  | Padding n -> max n 1
  | Ping | Handshake_done -> 1
  | Ack { largest; delay; first_range } ->
      1 + vlen largest + vlen delay + 1 + vlen first_range
  | Reset_stream { stream_id; error; final_size } ->
      1 + vlen stream_id + vlen error + vlen final_size
  | Stop_sending { stream_id; error } -> 1 + vlen stream_id + vlen error
  | Crypto { offset; data } -> 1 + vlen offset + bytes_size data
  | New_token token -> 1 + bytes_size token
  | Stream { id; offset; data; fin = _ } ->
      1 + vlen id + vlen offset + bytes_size data
  | Max_data v | Data_blocked v -> 1 + vlen v
  | Max_stream_data { stream_id; max }
  | Stream_data_blocked { stream_id; max } ->
      1 + vlen stream_id + vlen max
  | Max_streams { max; _ } | Streams_blocked { max; _ } -> 1 + vlen max
  | New_connection_id { seq; retire_prior; cid; reset_token } ->
      1 + vlen seq + vlen retire_prior + 1 + String.length cid
      + String.length reset_token
  | Retire_connection_id seq -> 1 + vlen seq
  | Path_challenge data | Path_response data -> 1 + String.length data
  | Connection_close { error; frame_type; reason; app } ->
      1 + vlen error + (if app then 0 else vlen frame_type) + bytes_size reason

let encoded_length frames = List.fold_left (fun n f -> n + size f) 0 frames
let put_varint = Varint.write

let put_string b off s =
  Bytes.blit_string s 0 b off (String.length s);
  off + String.length s

let put_bytes b off s = put_string b (put_varint b off (String.length s)) s

(* the frame type and then each field in order, as varints *)
let put1 b off ft x = put_varint b (put_varint b off ft) x
let put2 b off ft x y = put_varint b (put1 b off ft x) y
let put3 b off ft x y z = put_varint b (put2 b off ft x y) z

let write b off f =
  match f with
  | Padding n ->
      let n = max n 1 in
      Bytes.fill b off n '\x00';
      off + n
  | Ping -> put_varint b off 0x01
  | Ack { largest; delay; first_range } ->
      (* one range: range count 0 *)
      put_varint b (put3 b off 0x02 largest delay 0) first_range
  | Reset_stream { stream_id; error; final_size } ->
      put3 b off 0x04 stream_id error final_size
  | Stop_sending { stream_id; error } -> put2 b off 0x05 stream_id error
  | Crypto { offset; data } -> put_bytes b (put1 b off 0x06 offset) data
  | New_token token -> put_bytes b (put_varint b off 0x07) token
  | Stream { id; offset; data; fin } ->
      (* 0x08 base; OFF=0x04, LEN=0x02, FIN=0x01 — always explicit. *)
      let ft = 0x08 lor 0x04 lor 0x02 lor if fin then 0x01 else 0 in
      put_bytes b (put2 b off ft id offset) data
  | Max_data m -> put1 b off 0x10 m
  | Max_stream_data { stream_id; max } -> put2 b off 0x11 stream_id max
  | Max_streams { bidi; max } -> put1 b off (if bidi then 0x12 else 0x13) max
  | Data_blocked m -> put1 b off 0x14 m
  | Stream_data_blocked { stream_id; max } -> put2 b off 0x15 stream_id max
  | Streams_blocked { bidi; max } ->
      put1 b off (if bidi then 0x16 else 0x17) max
  | New_connection_id { seq; retire_prior; cid; reset_token } ->
      let off = put2 b off 0x18 seq retire_prior in
      Bytes.set b off (Char.chr (String.length cid));
      put_string b (put_string b (off + 1) cid) reset_token (* fixed 16 bytes *)
  | Retire_connection_id seq -> put1 b off 0x19 seq
  | Path_challenge data ->
      put_string b (put_varint b off 0x1A) data (* fixed 8 bytes *)
  | Path_response data -> put_string b (put_varint b off 0x1B) data
  | Connection_close { error; frame_type; reason; app } ->
      let off =
        if app then put1 b off 0x1D error else put2 b off 0x1C error frame_type
      in
      put_bytes b off reason
  | Handshake_done -> put_varint b off 0x1E

let rec write_all b off = function
  | [] -> off
  | f :: rest -> write_all b (write b off f) rest

let encode_all frames =
  let b = Bytes.create (encoded_length frames) in
  ignore (write_all b 0 frames);
  Bytes.unsafe_to_string b

exception Malformed of string

(* One cursor walks the payload; fields are read in order with
   sequential lets (record fields would be evaluated in an unspecified
   order). The readers are top-level functions of the payload and the
   cursor, so decoding allocates only the frames themselves. *)
let fixed payload pos n =
  let off = !pos in
  if off + n > String.length payload then
    raise (Malformed "truncated fixed field");
  pos := off + n;
  String.sub payload off n

let bytes payload pos = fixed payload pos (Varint.read payload pos)

(* The frame of type [ft], whose type field began at [start]. *)
let decode_frame payload pos start ft =
  match ft with
  | 0x00 ->
      (* Coalesce a run of padding. *)
      let len = String.length payload in
      while !pos < len && payload.[!pos] = '\x00' do
        incr pos
      done;
      Padding (!pos - start)
  | 0x01 -> Ping
  | 0x02 | 0x03 ->
      let largest = Varint.read payload pos in
      let delay = Varint.read payload pos in
      if Varint.read payload pos <> 0 then
        raise (Malformed "multi-range ACK unsupported");
      let first_range = Varint.read payload pos in
      Ack { largest; delay; first_range }
  | 0x04 ->
      let stream_id = Varint.read payload pos in
      let error = Varint.read payload pos in
      let final_size = Varint.read payload pos in
      Reset_stream { stream_id; error; final_size }
  | 0x05 ->
      let stream_id = Varint.read payload pos in
      let error = Varint.read payload pos in
      Stop_sending { stream_id; error }
  | 0x06 ->
      let offset = Varint.read payload pos in
      let data = bytes payload pos in
      Crypto { offset; data }
  | 0x07 -> New_token (bytes payload pos)
  | ft when ft >= 0x08 && ft <= 0x0F ->
      let id = Varint.read payload pos in
      let offset = if ft land 0x04 <> 0 then Varint.read payload pos else 0 in
      let data =
        if ft land 0x02 <> 0 then bytes payload pos
        else fixed payload pos (String.length payload - !pos)
      in
      Stream { id; offset; data; fin = ft land 0x01 <> 0 }
  | 0x10 -> Max_data (Varint.read payload pos)
  | 0x11 ->
      let stream_id = Varint.read payload pos in
      let max = Varint.read payload pos in
      Max_stream_data { stream_id; max }
  | 0x12 | 0x13 ->
      Max_streams { bidi = ft = 0x12; max = Varint.read payload pos }
  | 0x14 -> Data_blocked (Varint.read payload pos)
  | 0x15 ->
      let stream_id = Varint.read payload pos in
      let max = Varint.read payload pos in
      Stream_data_blocked { stream_id; max }
  | 0x16 | 0x17 ->
      Streams_blocked { bidi = ft = 0x16; max = Varint.read payload pos }
  | 0x18 ->
      let seq = Varint.read payload pos in
      let retire_prior = Varint.read payload pos in
      if !pos >= String.length payload then raise (Malformed "truncated NCID");
      let cid_len = Char.code payload.[!pos] in
      incr pos;
      let cid = fixed payload pos cid_len in
      let reset_token = fixed payload pos 16 in
      New_connection_id { seq; retire_prior; cid; reset_token }
  | 0x19 -> Retire_connection_id (Varint.read payload pos)
  | 0x1A -> Path_challenge (fixed payload pos 8)
  | 0x1B -> Path_response (fixed payload pos 8)
  | 0x1C | 0x1D ->
      let app = ft = 0x1D in
      let error = Varint.read payload pos in
      let frame_type = if app then 0 else Varint.read payload pos in
      let reason = bytes payload pos in
      Connection_close { error; frame_type; reason; app }
  | 0x1E -> Handshake_done
  | ft -> raise (Malformed (Printf.sprintf "unknown frame type 0x%x" ft))

let rec decode_frames payload pos acc =
  if !pos >= String.length payload then List.rev acc
  else
    let start = !pos in
    let ft = Varint.read payload pos in
    decode_frames payload pos (decode_frame payload pos start ft :: acc)

let decode_all payload =
  match decode_frames payload (ref 0) [] with
  | frames -> Ok frames
  | exception Malformed msg -> Error msg
  | exception Invalid_argument msg -> Error msg
