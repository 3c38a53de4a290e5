module Rng = Prognosis_sul.Rng
module W = Dtls_wire
module C = Dtls_crypto

type t = {
  rng : Rng.t;
  crypto : C.t;
  protect : (C.t * C.direction) option;  (** [crypto] as we write *)
  unprotect : (C.t * C.direction) option;  (** [crypto] as we read *)
  mutable client_random : string;
  mutable premaster : string;
  mutable cookie : string;
  mutable server_random : string;
  mutable write_epoch : int;
  mutable write_seq : int;
  mutable read_epoch : int;
  mutable message_seq : int;
  mutable server_finished : bool;
  mutable closed_ : bool;
  mutable echoed_ : string;
}

let reset t =
  C.clear t.crypto;
  t.client_random <- Rng.hex t.rng 8;
  t.premaster <- Rng.hex t.rng 8;
  t.cookie <- "";
  t.server_random <- "";
  t.write_epoch <- 0;
  t.write_seq <- 0;
  t.read_epoch <- 0;
  t.message_seq <- 0;
  t.server_finished <- false;
  t.closed_ <- false;
  t.echoed_ <- ""

let create rng =
  let crypto = C.create () in
  let t =
    {
      rng;
      crypto;
      protect = Some (crypto, C.Client_write);
      unprotect = Some (crypto, C.Server_write);
      client_random = "";
      premaster = "";
      cookie = "";
      server_random = "";
      write_epoch = 0;
      write_seq = 0;
      read_epoch = 0;
      message_seq = 0;
      server_finished = false;
      closed_ = false;
      echoed_ = "";
    }
  in
  reset t;
  t

let handshake_complete t = t.server_finished
let closed t = t.closed_
let echoed t = t.echoed_

let emit t content payload =
  let seq = t.write_seq in
  t.write_seq <- seq + 1;
  let record = { W.content; epoch = t.write_epoch; seq; payload } in
  Some (W.encode_record ?protect:t.protect record, record)

let emit_handshake t msg_type body =
  let message_seq = t.message_seq in
  t.message_seq <- message_seq + 1;
  emit t W.Handshake (W.encode_handshake { W.msg_type; message_seq; body })

let concretize t symbol =
  match symbol with
  | Dtls_alphabet.Client_hello ->
      emit_handshake t W.Client_hello
        ("CR:" ^ t.client_random ^ ";COOKIE:" ^ t.cookie)
  | Dtls_alphabet.Client_key_exchange ->
      (* Key derivation happens at send time with whatever server
         random is known — the reference implementation's state rules. *)
      C.derive_master t.crypto ~client_random:t.client_random
        ~server_random:t.server_random ~premaster:t.premaster;
      emit_handshake t W.Client_key_exchange ("PMS:" ^ t.premaster)
  | Dtls_alphabet.Change_cipher_spec ->
      let result = emit t W.Change_cipher_spec "\x01" in
      t.write_epoch <- 1;
      t.write_seq <- 0;
      result
  | Dtls_alphabet.Finished ->
      if (not (C.ready t.crypto)) || t.write_epoch < 1 then None
      else emit_handshake t W.Finished (C.verify_data t.crypto C.Client_write)
  | Dtls_alphabet.App_data ->
      if (not (C.ready t.crypto)) || t.write_epoch < 1 then None
      else emit t W.Application_data "ping"
  | Dtls_alphabet.Alert_close -> emit t W.Alert "\x01\x00"

let absorb t data =
  match W.decode_record ?unprotect:t.unprotect data with
  | Error _ -> None
  | Ok r ->
      (match r.W.content with
      | W.Handshake -> (
          (* only the messages whose body we keep are copied out *)
          match W.handshake_type r.W.payload with
          | Some (W.Hello_verify_request | W.Server_hello) -> (
              match W.decode_handshake r.W.payload with
              | Ok { W.msg_type = W.Hello_verify_request; body; _ } ->
                  t.cookie <- body
              | Ok { W.msg_type = W.Server_hello; body; _ } ->
                  if String.length body > 3 && String.starts_with ~prefix:"SR:" body
                  then t.server_random <- String.sub body 3 (String.length body - 3)
              | Ok _ | Error _ -> ())
          | Some W.Finished -> t.server_finished <- true
          | Some
              ( W.Certificate | W.Server_hello_done | W.Client_hello
              | W.Client_key_exchange )
          | None ->
              ())
      | W.Change_cipher_spec -> t.read_epoch <- 1
      | W.Application_data -> t.echoed_ <- t.echoed_ ^ r.W.payload
      | W.Alert -> t.closed_ <- true);
      Some r
