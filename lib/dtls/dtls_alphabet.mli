(** The abstract MiniDTLS alphabet: six client symbols covering the
    cookie exchange, the handshake, the epoch switch, application data
    and closure — the same granularity the paper's TCP/QUIC alphabets
    use (message kinds, parameters erased). *)

type symbol =
  | Client_hello  (** CLIENT_HELLO(?) — cookie filled from state *)
  | Client_key_exchange  (** CLIENT_KEY_EXCHANGE(?) *)
  | Change_cipher_spec  (** CHANGE_CIPHER_SPEC *)
  | Finished  (** FINISHED(?) — requires negotiated keys *)
  | App_data  (** APPLICATION_DATA(?) — requires epoch 1 *)
  | Alert_close  (** ALERT(close_notify) *)

val all : symbol array
val to_string : symbol -> string
val pp : Format.formatter -> symbol -> unit

(** Abstract view of one server record. *)
type arecord =
  | A_hello_verify_request
  | A_server_hello
  | A_certificate
  | A_server_hello_done
  | A_change_cipher_spec
  | A_finished
  | A_app_data
  | A_alert

type output = arecord list

val output_to_string : output -> string
val pp_output : Format.formatter -> output -> unit

val abstract : Dtls_wire.record_ -> arecord option
(** α on a decoded record; [None] for record contents outside the
    abstraction (never produced by the server). *)
