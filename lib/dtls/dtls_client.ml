module Rng = Prognosis_sul.Rng
module W = Dtls_wire
module C = Dtls_crypto

type t = {
  rng : Rng.t;
  mutable crypto : C.t;
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
  t.crypto <- C.create ();
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
  let t =
    {
      rng;
      crypto = C.create ();
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
  Some (W.encode_record ~protect:(t.crypto, C.Client_write) record, record)

let emit_handshake t msg_type body =
  let message_seq = t.message_seq in
  t.message_seq <- message_seq + 1;
  emit t W.Handshake (W.encode_handshake { W.msg_type; message_seq; body })

let concretize t symbol =
  match symbol with
  | Dtls_alphabet.Client_hello ->
      emit_handshake t W.Client_hello
        (Printf.sprintf "CR:%s;COOKIE:%s" t.client_random t.cookie)
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
  match W.decode_record ~unprotect:(t.crypto, C.Server_write) data with
  | Error _ -> None
  | Ok r ->
      (match r.W.content with
      | W.Handshake -> (
          match W.decode_handshake r.W.payload with
          | Error _ -> ()
          | Ok h -> (
              match h.W.msg_type with
              | W.Hello_verify_request -> t.cookie <- h.W.body
              | W.Server_hello ->
                  if String.length h.W.body > 3 && String.sub h.W.body 0 3 = "SR:"
                  then
                    t.server_random <-
                      String.sub h.W.body 3 (String.length h.W.body - 3)
              | W.Finished -> t.server_finished <- true
              | W.Certificate | W.Server_hello_done | W.Client_hello
              | W.Client_key_exchange ->
                  ()))
      | W.Change_cipher_spec -> t.read_epoch <- 1
      | W.Application_data -> t.echoed_ <- t.echoed_ ^ r.W.payload
      | W.Alert -> t.closed_ <- true);
      Some r
