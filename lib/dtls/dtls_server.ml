module Rng = Prognosis_sul.Rng
module W = Dtls_wire
module C = Dtls_crypto

type config = { require_cookie : bool; strict_ccs : bool }

let default_config = { require_cookie = true; strict_ccs = true }

type phase =
  | Waiting_hello
  | Waiting_verified_hello
  | Waiting_key_exchange
  | Waiting_ccs
  | Waiting_finished
  | Established
  | Closed

let phase_to_string = function
  | Waiting_hello -> "waiting-hello"
  | Waiting_verified_hello -> "waiting-verified-hello"
  | Waiting_key_exchange -> "waiting-key-exchange"
  | Waiting_ccs -> "waiting-ccs"
  | Waiting_finished -> "waiting-finished"
  | Established -> "established"
  | Closed -> "closed"

type t = {
  cfg : config;
  rng : Rng.t;
  crypto : C.t;
  protect : (C.t * C.direction) option;  (** [crypto] as we write *)
  unprotect : (C.t * C.direction) option;  (** [crypto] as we read *)
  mutable phase : phase;
  mutable cookie : string;
  mutable client_random : string;
  mutable server_random : string;
  mutable read_epoch : int;
  mutable write_epoch : int;
  mutable write_seq : int; (* per current write epoch *)
  mutable message_seq : int;
}

let reset t =
  C.clear t.crypto;
  t.phase <- Waiting_hello;
  t.cookie <- "";
  t.client_random <- "";
  t.server_random <- "";
  t.read_epoch <- 0;
  t.write_epoch <- 0;
  t.write_seq <- 0;
  t.message_seq <- 0

let create ?(config = default_config) rng =
  let crypto = C.create () in
  let t =
    {
      cfg = config;
      rng;
      crypto;
      protect = Some (crypto, C.Server_write);
      unprotect = Some (crypto, C.Client_write);
      phase = Waiting_hello;
      cookie = "";
      client_random = "";
      server_random = "";
      read_epoch = 0;
      write_epoch = 0;
      write_seq = 0;
      message_seq = 0;
    }
  in
  reset t;
  t

let phase_name t = phase_to_string t.phase

let emit t content payload =
  let seq = t.write_seq in
  t.write_seq <- seq + 1;
  W.encode_record ?protect:t.protect
    { W.content; epoch = t.write_epoch; seq; payload }

let emit_handshake t msg_type body =
  let seq = t.write_seq and message_seq = t.message_seq in
  t.write_seq <- seq + 1;
  t.message_seq <- message_seq + 1;
  W.encode_handshake_record ?protect:t.protect ~epoch:t.write_epoch ~seq
    msg_type ~message_seq body

(* alert payloads: level fatal (2), then the description *)
let unexpected_message = "\x02\x0a"
let decrypt_error = "\x02\x33"

let fatal_alert t alert =
  t.phase <- Closed;
  [ emit t W.Alert alert ]

(* ClientHello body: "CR:<random>;COOKIE:<cookie>", exactly one ';',
   read in place. *)
let rec find body c i =
  if i >= String.length body || String.unsafe_get body i = c then i
  else find body c (i + 1)

let rec has_at body off prefix i =
  i = String.length prefix
  || String.unsafe_get body (off + i) = String.unsafe_get prefix i
     && has_at body off prefix (i + 1)

let parse_client_hello body =
  let n = String.length body in
  let semi = find body ';' 0 in
  if
    semi > 3 && semi < n
    && has_at body 0 "CR:" 0
    && n - (semi + 1) >= 7
    && find body ';' (semi + 1) = n
    && has_at body (semi + 1) "COOKIE:" 0
  then Some (String.sub body 3 (semi - 3), String.sub body (semi + 8) (n - semi - 8))
  else None

let server_flight t =
  t.server_random <- Rng.hex t.rng 8;
  t.phase <- Waiting_key_exchange;
  [
    emit_handshake t W.Server_hello ("SR:" ^ t.server_random);
    emit_handshake t W.Certificate "CERT:minidtls-self-signed";
    emit_handshake t W.Server_hello_done "";
  ]

let handle_client_hello t body =
  match parse_client_hello body with
  | None -> []
  | Some (client_random, cookie) -> (
      t.client_random <- client_random;
      match t.phase with
      | Waiting_hello when t.cfg.require_cookie ->
          t.cookie <- Rng.hex t.rng 8;
          t.phase <- Waiting_verified_hello;
          [ emit_handshake t W.Hello_verify_request t.cookie ]
      | Waiting_hello -> server_flight t
      | Waiting_verified_hello ->
          if cookie = t.cookie then server_flight t
          else [ emit_handshake t W.Hello_verify_request t.cookie ]
      | Waiting_key_exchange | Waiting_ccs | Waiting_finished ->
          (* Retransmitted hello: repeat the flight with fresh message
             sequence numbers but the same server random. *)
          [
            emit_handshake t W.Server_hello ("SR:" ^ t.server_random);
            emit_handshake t W.Certificate "CERT:minidtls-self-signed";
            emit_handshake t W.Server_hello_done "";
          ]
      | Established | Closed -> [])

let handle_key_exchange t body =
  match t.phase with
  | Waiting_key_exchange
    when String.length body > 4 && String.starts_with ~prefix:"PMS:" body ->
      let premaster = String.sub body 4 (String.length body - 4) in
      C.derive_master t.crypto ~client_random:t.client_random
        ~server_random:t.server_random ~premaster;
      t.phase <- Waiting_ccs;
      []
  | _ -> []

let handle_finished t body =
  match t.phase with
  | Waiting_finished ->
      if body = C.verify_data t.crypto C.Client_write then begin
        t.phase <- Established;
        let ccs = emit t W.Change_cipher_spec "\x01" in
        t.write_epoch <- 1;
        t.write_seq <- 0;
        let fin =
          emit_handshake t W.Finished (C.verify_data t.crypto C.Server_write)
        in
        [ ccs; fin ]
      end
      else fatal_alert t decrypt_error
  | _ -> []

let handle_record t (r : W.record_) =
  match r.W.content with
  | W.Handshake -> (
      match W.decode_handshake r.W.payload with
      | Error _ -> []
      | Ok h -> (
          match h.W.msg_type with
          | W.Client_hello -> handle_client_hello t h.W.body
          | W.Client_key_exchange -> handle_key_exchange t h.W.body
          | W.Finished -> handle_finished t h.W.body
          | W.Server_hello | W.Hello_verify_request | W.Certificate
          | W.Server_hello_done ->
              (* Server-only messages from the client: ignored. *)
              []))
  | W.Change_cipher_spec -> (
      match t.phase with
      | Waiting_ccs ->
          t.read_epoch <- 1;
          t.phase <- Waiting_finished;
          []
      | Waiting_hello | Waiting_verified_hello | Waiting_key_exchange ->
          if t.cfg.strict_ccs then fatal_alert t unexpected_message
          else []
      | Waiting_finished | Established | Closed -> [])
  | W.Application_data -> (
      match t.phase with
      | Established ->
          (* Echo service: the response is the uppercased request. *)
          [ emit t W.Application_data (String.uppercase_ascii r.W.payload) ]
      | _ -> [])
  | W.Alert -> (
      match t.phase with
      | Closed -> []
      | _ ->
          t.phase <- Closed;
          [ emit t W.Alert "\x01\x00" (* warning, close_notify *) ])

let handle_datagram t data =
  match W.decode_record ?unprotect:t.unprotect data with
  | Error _ -> []
  | Ok r ->
      (* Records must arrive in the current read epoch. *)
      if r.W.epoch <> t.read_epoch && r.W.epoch <> t.read_epoch + 1 then []
      else if r.W.epoch > t.read_epoch && r.W.content <> W.Change_cipher_spec
              && t.phase <> Waiting_finished && t.phase <> Established
      then []
      else handle_record t r
