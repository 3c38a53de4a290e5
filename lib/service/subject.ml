module Mealy = Prognosis_automata.Mealy
module Sul = Prognosis_sul.Sul
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

let make name kind ~symbols ~to_string ~output_to_string ~eq sul =
  let inputs = Array.map to_string symbols in
  let factory =
    Pipeline.seeded (fun seed ->
        Sul.strings ~symbols ~to_string ~output_to_string (sul ~seed))
  in
  let learn ~seed ~algorithm ~exec =
    Pipeline.learn ?exec ~subject:name ~seed ~algorithm ~inputs ~factory
      ~eq:(eq ~seed) ()
  in
  { name; kind; inputs; factory; eq; learn }

let tcp name server_config =
  let module A = Prognosis_tcp.Tcp_alphabet in
  make name Persist.Tcp_model ~symbols:A.all ~to_string:A.to_string
    ~output_to_string:A.output_to_string ~eq:Tcp_study.eq_oracle
    (Prognosis_tcp.Tcp_adapter.sul ~server_config ())

let dtls name server_config =
  let module A = Prognosis_dtls.Dtls_alphabet in
  make name Persist.Dtls_model ~symbols:A.all ~to_string:A.to_string
    ~output_to_string:A.output_to_string
    ~eq:(Dtls_study.eq_oracle ~symbol:A.to_string)
    (Prognosis_dtls.Dtls_adapter.sul ~server_config ())

let quic name profile =
  let module A = Prognosis_quic.Quic_alphabet in
  make name Persist.Quic_model ~symbols:A.all ~to_string:A.to_string
    ~output_to_string:A.output_to_string ~eq:Quic_study.eq_oracle
    (Prognosis_quic.Quic_adapter.sul ~profile ())

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
  match name with
  | "tcp" -> Ok (tcp name T.default_config)
  | "tcp:persistent" ->
      Ok (tcp name { T.default_config with T.one_shot = false })
  | "tcp:no-challenge" ->
      Ok (tcp name { T.default_config with T.challenge_acks = false })
  | "dtls" -> Ok (dtls name D.default_config)
  | "dtls:no-cookie" ->
      Ok (dtls name { D.default_config with D.require_cookie = false })
  | "dtls:lax-ccs" ->
      Ok (dtls name { D.default_config with D.strict_ccs = false })
  | _ when String.length name > 5 && String.sub name 0 5 = "quic:" ->
      Result.map (quic name)
        (profile_of_name (String.sub name 5 (String.length name - 5)))
  | _ ->
      Error
        (Printf.sprintf "unknown subject %S (available: %s)" name
           (String.concat ", " names))
