type symbol =
  | Client_hello
  | Client_key_exchange
  | Change_cipher_spec
  | Finished
  | App_data
  | Alert_close

let all =
  [| Client_hello; Client_key_exchange; Change_cipher_spec; Finished; App_data; Alert_close |]

let to_string = function
  | Client_hello -> "CLIENT_HELLO(?)"
  | Client_key_exchange -> "CLIENT_KEY_EXCHANGE(?)"
  | Change_cipher_spec -> "CHANGE_CIPHER_SPEC"
  | Finished -> "FINISHED(?)"
  | App_data -> "APP_DATA(?)"
  | Alert_close -> "ALERT(close_notify)"

let pp fmt s = Format.pp_print_string fmt (to_string s)

type arecord =
  | A_hello_verify_request
  | A_server_hello
  | A_certificate
  | A_server_hello_done
  | A_change_cipher_spec
  | A_finished
  | A_app_data
  | A_alert

let arecord_to_string = function
  | A_hello_verify_request -> "HELLO_VERIFY_REQUEST"
  | A_server_hello -> "SERVER_HELLO"
  | A_certificate -> "CERTIFICATE"
  | A_server_hello_done -> "SERVER_HELLO_DONE"
  | A_change_cipher_spec -> "CCS"
  | A_finished -> "FINISHED"
  | A_app_data -> "APP_DATA"
  | A_alert -> "ALERT"

type output = arecord list

let output_to_string = function
  | [] -> "NIL"
  | records -> "{" ^ String.concat "," (List.map arecord_to_string records) ^ "}"

let pp_output fmt o = Format.pp_print_string fmt (output_to_string o)

let abstract (r : Dtls_wire.record_) =
  match r.Dtls_wire.content with
  | Dtls_wire.Change_cipher_spec -> Some A_change_cipher_spec
  | Dtls_wire.Alert -> Some A_alert
  | Dtls_wire.Application_data -> Some A_app_data
  | Dtls_wire.Handshake -> (
      match Dtls_wire.handshake_type r.Dtls_wire.payload with
      | Some Dtls_wire.Hello_verify_request -> Some A_hello_verify_request
      | Some Dtls_wire.Server_hello -> Some A_server_hello
      | Some Dtls_wire.Certificate -> Some A_certificate
      | Some Dtls_wire.Server_hello_done -> Some A_server_hello_done
      | Some Dtls_wire.Finished -> Some A_finished
      | Some (Dtls_wire.Client_hello | Dtls_wire.Client_key_exchange) | None -> None)
