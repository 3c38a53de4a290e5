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
