type level = Initial_level | Handshake_level | Application_level

let level_to_string = function
  | Initial_level -> "initial"
  | Handshake_level -> "handshake"
  | Application_level -> "application"

type direction = Client_to_server | Server_to_client

module P = Prognosis_sul.Sim_crypto

let hash64 s = Int64.of_int (P.hash s)
let derive = P.derive

type secrets = { c2s : string; s2c : string }

type t = {
  mutable initial : secrets option;
  mutable handshake : secrets option;
  mutable application : secrets option;
  mutable app_phase : int;
}

let create () =
  { initial = None; handshake = None; application = None; app_phase = 0 }

let make_secrets base =
  { c2s = derive base "client"; s2c = derive base "server" }

let install_initial t ~dcid =
  t.initial <- Some (make_secrets (derive ("initial:" ^ dcid) "base"))

let install_handshake t ~client_random ~server_random =
  let base = derive ("hs:" ^ client_random ^ ":" ^ server_random) "base" in
  t.handshake <- Some (make_secrets base);
  t.application <- Some (make_secrets (derive base "app"))

let slot t = function
  | Initial_level -> t.initial
  | Handshake_level -> t.handshake
  | Application_level -> t.application

let drop_level t = function
  | Initial_level -> t.initial <- None
  | Handshake_level -> t.handshake <- None
  | Application_level -> t.application <- None

let has_level t level = slot t level <> None

let next_generation s = { c2s = derive s.c2s "ku"; s2c = derive s.s2c "ku" }

let update_application t =
  match t.application with
  | None -> ()
  | Some secrets ->
      t.application <- Some (next_generation secrets);
      t.app_phase <- t.app_phase + 1

let application_phase t = t.app_phase

let key_for secrets = function
  | Client_to_server -> secrets.c2s
  | Server_to_client -> secrets.s2c

let tag_length = P.tag_length

(* The keystream is seeded from (key, pn); the tag binds
   key | pn | header | plaintext. *)
let protect f key ~pn ~header data =
  let k = P.fold_string P.fnv_basis key in
  let sep h = P.fold_byte h (Char.code '|') in
  f ~stream:(P.fold_int k pn)
    ~auth:(sep (P.fold_string (sep (P.fold_int (sep k) pn)) header))
    data

let seal t level direction ~pn ~header plaintext =
  match slot t level with
  | None -> None
  | Some secrets ->
      Some (protect P.seal (key_for secrets direction) ~pn ~header plaintext)

let open_ t level direction ~pn ~header sealed =
  match slot t level with
  | None -> None
  | Some secrets ->
      protect P.open_ (key_for secrets direction) ~pn ~header sealed

let open_updated_application t direction ~pn ~header sealed =
  match t.application with
  | None -> None
  | Some secrets ->
      protect P.open_ (key_for (next_generation secrets) direction) ~pn ~header
        sealed

let stateless_reset_token ~dcid =
  derive ("srt:" ^ dcid) "token" ^ derive ("srt2:" ^ dcid) "token"
