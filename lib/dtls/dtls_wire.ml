type content_type =
  | Change_cipher_spec
  | Alert
  | Handshake
  | Application_data

let content_type_byte = function
  | Change_cipher_spec -> 20
  | Alert -> 21
  | Handshake -> 22
  | Application_data -> 23

let content_type_of_byte = function
  | 20 -> Some Change_cipher_spec
  | 21 -> Some Alert
  | 22 -> Some Handshake
  | 23 -> Some Application_data
  | _ -> None

type handshake_type =
  | Client_hello
  | Server_hello
  | Hello_verify_request
  | Certificate
  | Server_hello_done
  | Client_key_exchange
  | Finished

let handshake_type_byte = function
  | Client_hello -> 1
  | Server_hello -> 2
  | Hello_verify_request -> 3
  | Certificate -> 11
  | Server_hello_done -> 14
  | Client_key_exchange -> 16
  | Finished -> 20

let handshake_type_of_byte = function
  | 1 -> Some Client_hello
  | 2 -> Some Server_hello
  | 3 -> Some Hello_verify_request
  | 11 -> Some Certificate
  | 14 -> Some Server_hello_done
  | 16 -> Some Client_key_exchange
  | 20 -> Some Finished
  | _ -> None

type handshake = {
  msg_type : handshake_type;
  message_seq : int;
  body : string;
}

let get_u16 s off = (Char.code s.[off] lsl 8) lor Char.code s.[off + 1]
let get_u24 s off = (Char.code s.[off] lsl 16) lor get_u16 s (off + 1)
let get_u48 s off = (get_u16 s off lsl 32) lor (get_u16 s (off + 2) lsl 16) lor get_u16 s (off + 4)
let set_u16 b off v = Bytes.set_uint16_be b off (v land 0xFFFF)

let set_u24 b off v =
  Bytes.set_uint8 b off ((v lsr 16) land 0xFF);
  set_u16 b (off + 1) v

let set_u48 b off v =
  set_u16 b off (v lsr 32);
  set_u16 b (off + 2) (v lsr 16);
  set_u16 b (off + 4) v

(* DTLS handshake header: type(1) length(3) message_seq(2)
   fragment_offset(3) fragment_length(3); fragments are whole. The
   message is written into [b] from [off]. *)
let write_handshake b off msg_type ~message_seq body =
  let n = String.length body in
  Bytes.set_uint8 b off (handshake_type_byte msg_type);
  set_u24 b (off + 1) n;
  set_u16 b (off + 4) message_seq;
  set_u24 b (off + 6) 0;
  set_u24 b (off + 9) n;
  Bytes.blit_string body 0 b (off + 12) n

let encode_handshake h =
  let b = Bytes.create (12 + String.length h.body) in
  write_handshake b 0 h.msg_type ~message_seq:h.message_seq h.body;
  Bytes.unsafe_to_string b

let decode_handshake s =
  if String.length s < 12 then Error "handshake message too short"
  else begin
    match handshake_type_of_byte (Char.code s.[0]) with
    | None -> Error "unknown handshake type"
    | Some msg_type ->
        let length = get_u24 s 1 in
        let message_seq = get_u16 s 4 in
        let frag_offset = get_u24 s 6 in
        let frag_length = get_u24 s 9 in
        if frag_offset <> 0 || frag_length <> length then
          Error "fragmented handshake messages unsupported"
        else if String.length s < 12 + length then Error "truncated handshake body"
        else Ok { msg_type; message_seq; body = String.sub s 12 length }
  end

(* the checks of [decode_handshake], without copying the body *)
let handshake_type s =
  if String.length s < 12 then None
  else
    let length = get_u24 s 1 in
    if get_u24 s 6 <> 0 || get_u24 s 9 <> length || String.length s < 12 + length
    then None
    else handshake_type_of_byte (Char.code s.[0])

type record_ = {
  content : content_type;
  epoch : int;
  seq : int;
  payload : string;
}

let dtls_version = 0xFEFD (* DTLS 1.2 *)

(* Record header: type(1) version(2) epoch(2) seq(6) length(2). The
   header and the payload share one buffer; a protected payload is
   sealed in place behind the header, its tag in the last bytes. *)
let header_len = 13

(* A record of [n] payload bytes, which the caller writes at
   [header_len]. With [protect], a record of epoch >= 1 is sealed in
   place when the schedule has keys; [finish] writes the header and
   seals. *)
let record_buffer ?protect ~epoch n =
  let sealed =
    match protect with
    | Some (crypto, _) -> epoch >= 1 && Dtls_crypto.ready crypto
    | None -> false
  in
  Bytes.create (header_len + n + if sealed then Dtls_crypto.tag_length else 0)

let finish ?protect b content ~epoch ~seq n =
  let length = Bytes.length b - header_len in
  Bytes.set_uint8 b 0 (content_type_byte content);
  set_u16 b 1 dtls_version;
  set_u16 b 3 epoch;
  set_u48 b 5 seq;
  set_u16 b 11 length;
  (match protect with
  | Some (crypto, direction) when length > n ->
      ignore (Dtls_crypto.seal crypto direction ~epoch ~seq b header_len n)
  | Some _ | None -> ());
  Bytes.unsafe_to_string b

let encode_record ?protect r =
  let n = String.length r.payload in
  let b = record_buffer ?protect ~epoch:r.epoch n in
  Bytes.blit_string r.payload 0 b header_len n;
  finish ?protect b r.content ~epoch:r.epoch ~seq:r.seq n

let encode_handshake_record ?protect ~epoch ~seq msg_type ~message_seq body =
  let n = 12 + String.length body in
  let b = record_buffer ?protect ~epoch n in
  write_handshake b header_len msg_type ~message_seq body;
  finish ?protect b Handshake ~epoch ~seq n

let decode_record ?unprotect s =
  if String.length s < header_len then Error "record too short"
  else begin
    match content_type_of_byte (Char.code s.[0]) with
    | None -> Error "unknown content type"
    | Some content ->
        if get_u16 s 1 <> dtls_version then Error "unsupported version"
        else begin
          let epoch = get_u16 s 3 in
          let seq = get_u48 s 5 in
          let length = get_u16 s 11 in
          if String.length s < header_len + length then Error "truncated record"
          else begin
            let payload =
              match unprotect with
              | Some (crypto, direction) when epoch >= 1 ->
                  (* opened straight from the datagram *)
                  Dtls_crypto.open_ crypto direction ~epoch ~seq s header_len
                    length
              | Some _ | None -> Some (String.sub s header_len length)
            in
            match payload with
            | Some payload -> Ok { content; epoch; seq; payload }
            | None -> Error "record protection failure"
          end
        end
  end
