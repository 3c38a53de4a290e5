(** MiniDTLS record and handshake-message codecs.

    A third protocol substrate demonstrating the framework's
    reusability claim (the paper's intro motivates with SSH/TLS/DTLS,
    and its related work [21] applies model learning to DTLS). The
    record layout follows RFC 6347: content type, version, epoch,
    48-bit sequence number, length; handshake messages carry the DTLS
    message-sequence/fragmentation header (fragments are always whole
    here). Epoch-1 records are protected by {!Dtls_crypto}. *)

type content_type =
  | Change_cipher_spec
  | Alert
  | Handshake
  | Application_data

type handshake_type =
  | Client_hello
  | Server_hello
  | Hello_verify_request
  | Certificate
  | Server_hello_done
  | Client_key_exchange
  | Finished

type handshake = {
  msg_type : handshake_type;
  message_seq : int;
  body : string;
}

val encode_handshake : handshake -> string
val decode_handshake : string -> (handshake, string) result

type record_ = {
  content : content_type;
  epoch : int;
  seq : int;  (** 48-bit record sequence number *)
  payload : string;  (** plaintext payload (protection is applied at
                         encode time for epoch >= 1) *)
}

val encode_record :
  ?protect:Dtls_crypto.t * Dtls_crypto.direction -> record_ -> string
(** Header and payload in one buffer. With [protect], a record of epoch
    >= 1 is sealed in place under that key schedule and direction; it
    goes out as plaintext while the schedule has no keys yet. *)

val decode_record :
  ?unprotect:Dtls_crypto.t * Dtls_crypto.direction ->
  string ->
  (record_, string) result
(** With [unprotect], the payload of an epoch >= 1 record is opened
    straight from the datagram; missing keys or a bad tag (wrong keys,
    tampering) make decoding fail. *)
