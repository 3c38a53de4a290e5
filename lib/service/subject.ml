module Mealy = Prognosis_automata.Mealy
module Learn = Prognosis_learner.Learn
module Oracle = Prognosis_learner.Oracle
open Prognosis

type t = {
  name : string;
  kind : Persist.kind;
  inputs : string array;
  factory : (string, string) Pipeline.factory;
  eq : seed:int64 -> (string, string) Oracle.equivalence;
  learn :
    seed:int64 ->
    algorithm:Learn.algorithm ->
    exec:Prognosis_exec.Engine.config option ->
    (string, string) Mealy.t * Report.t;
}

let profile_of_name name =
  match Prognosis_quic.Quic_profile.find name with
  | Some p -> Ok p
  | None ->
      Error
        (Printf.sprintf "unknown profile %S (available: %s)" name
           (String.concat ", "
              (List.map
                 (fun p -> p.Prognosis_quic.Quic_profile.name)
                 Prognosis_quic.Quic_profile.all)))

let make (d : (_, _) Protocol.t) =
  let s = Protocol.strings d in
  let learn ~seed ~algorithm ~exec =
    let model, report = Protocol.learn ~seed ~algorithm ?exec d in
    ( Persist.to_string_model ~input_to_string:d.Protocol.input_to_string
        ~output_to_string:d.Protocol.output_to_string model,
      report )
  in
  {
    name = d.Protocol.name;
    kind = d.Protocol.kind;
    inputs = s.Protocol.inputs;
    factory = Protocol.factory s;
    eq = Protocol.eq_oracle s;
    learn;
  }

(* [Error] when [e] holds an input symbol outside [s]'s alphabet. *)
let foreign_input s (e : Prognosis_fingerprint.Library.entry) =
  let foreign x = not (Array.mem x s.inputs) in
  match Array.find_opt foreign (Mealy.inputs e.model) with
  | None -> Ok ()
  | Some x ->
      Error
        (Printf.sprintf
           "library entry %S has input %S, which the %s endpoint does not have"
           e.name x s.name)

let check_library s (lib : Prognosis_fingerprint.Library.t) =
  List.fold_left
    (fun acc (e : Prognosis_fingerprint.Library.entry) ->
      Result.bind acc (fun () ->
          if e.kind = s.kind then foreign_input s e else Ok ()))
    (Ok ()) lib.entries

let names =
  [
    "tcp";
    "tcp:persistent";
    "tcp:no-challenge";
    "dtls";
    "dtls:no-cookie";
    "dtls:lax-ccs";
    "quic:<profile>";
  ]

let of_name name =
  let module T = Prognosis_tcp.Tcp_server in
  let module D = Prognosis_dtls.Dtls_server in
  let named d = Ok (make { d with Protocol.name }) in
  let tcp server_config = named (Tcp_study.protocol ~server_config ()) in
  let dtls server_config = named (Dtls_study.protocol ~server_config ()) in
  match name with
  | "tcp" -> tcp T.default_config
  | "tcp:persistent" -> tcp { T.default_config with T.one_shot = false }
  | "tcp:no-challenge" -> tcp { T.default_config with T.challenge_acks = false }
  | "dtls" -> dtls D.default_config
  | "dtls:no-cookie" -> dtls { D.default_config with D.require_cookie = false }
  | "dtls:lax-ccs" -> dtls { D.default_config with D.strict_ccs = false }
  | _ when String.length name > 5 && String.sub name 0 5 = "quic:" ->
      Result.map
        (fun profile -> make (Quic_study.protocol profile))
        (profile_of_name (String.sub name 5 (String.length name - 5)))
  | _ ->
      Error
        (Printf.sprintf "unknown subject %S (available: %s)" name
           (String.concat ", " names))

(* Subjects of one kind differ in server configuration or QUIC
   profile, never in inputs, so one of them stands in for every
   endpoint of its kind, under the kind's name. No subject drives a
   TCP client: a tcp-client entry has no endpoint to be checked
   against. *)
let check_entry (e : Prognosis_fingerprint.Library.entry) =
  let stand_in =
    match e.kind with
    | Persist.Tcp_model -> Some (make (Tcp_study.protocol ()))
    | Persist.Quic_model ->
        let profile = Prognosis_quic.Quic_profile.quiche_like in
        Some (make (Quic_study.protocol profile))
    | Persist.Dtls_model -> Some (make (Dtls_study.protocol ()))
    | Persist.Tcp_client_model -> None
  in
  match stand_in with
  | None -> Ok ()
  | Some s ->
      foreign_input { s with name = Persist.kind_to_string e.kind } e
