type level = Initial_level | Handshake_level | Application_level

let level_to_string = function
  | Initial_level -> "initial"
  | Handshake_level -> "handshake"
  | Application_level -> "application"

type direction = Client_to_server | Server_to_client

module P = Prognosis_sul.Sim_crypto

let hash64 s = Int64.of_int (P.hash s)

(* A direction's key, derived once per level: the 8-byte secret's
   absorbed hash state. Packets start from it, and so does the next
   generation on a key update. *)
type secrets = { c2s : int; s2c : int }

type t = {
  mutable initial : secrets option;
  mutable handshake : secrets option;
  mutable application : secrets option;
  mutable app_phase : int;
}

let create () =
  { initial = None; handshake = None; application = None; app_phase = 0 }

(* [base] is the absorbed state of the level's base secret *)
let make_secrets base =
  { c2s = P.derive_key base "client"; s2c = P.derive_key base "server" }

let install_initial t ~dcid =
  let secret = P.fold_concat P.fnv_basis [ "initial:"; dcid ] in
  t.initial <- Some (make_secrets (P.derive_key secret "base"))

let install_handshake t ~client_random ~server_random =
  let randoms =
    P.fold_concat P.fnv_basis [ "hs:"; client_random; ":"; server_random ]
  in
  let base = P.derive_key randoms "base" in
  t.handshake <- Some (make_secrets base);
  t.application <- Some (make_secrets (P.derive_key base "app"))

let slot t = function
  | Initial_level -> t.initial
  | Handshake_level -> t.handshake
  | Application_level -> t.application

let drop_level t = function
  | Initial_level -> t.initial <- None
  | Handshake_level -> t.handshake <- None
  | Application_level -> t.application <- None

let has_level t level = slot t level <> None

let next_generation s =
  { c2s = P.derive_key s.c2s "ku"; s2c = P.derive_key s.s2c "ku" }

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
   key | pn | header | plaintext, the header being [data[0, header_len)]. *)
let sep h = P.fold_byte h (Char.code '|')
let stream key pn = P.fold_int key pn

let auth key pn data header_len =
  sep (P.fold_sub (sep (P.fold_int (sep key) pn)) data 0 header_len)

let seal_into t level direction ~pn buf ~header_len =
  match slot t level with
  | None -> false
  | Some secrets ->
      let key = key_for secrets direction in
      (* the header is only read while [auth] absorbs it *)
      let auth = auth key pn (Bytes.unsafe_to_string buf) header_len in
      P.seal ~stream:(stream key pn) ~auth buf header_len
        (Bytes.length buf - header_len - tag_length);
      true

let seal t level direction ~pn ~header plaintext =
  let h = String.length header and n = String.length plaintext in
  let buf = Bytes.create (h + n + tag_length) in
  Bytes.blit_string header 0 buf 0 h;
  Bytes.blit_string plaintext 0 buf h n;
  if seal_into t level direction ~pn buf ~header_len:h then
    Some (Bytes.sub_string buf h (n + tag_length))
  else None

let open_with key ~pn data ~header_len ~len =
  P.open_ ~stream:(stream key pn) ~auth:(auth key pn data header_len) data
    header_len len

let open_ t level direction ~pn data ~header_len ~len =
  match slot t level with
  | None -> None
  | Some secrets ->
      open_with (key_for secrets direction) ~pn data ~header_len ~len

let open_updated_application t direction ~pn data ~header_len ~len =
  match t.application with
  | None -> None
  | Some secrets ->
      open_with
        (key_for (next_generation secrets) direction)
        ~pn data ~header_len ~len

let stateless_reset_token ~dcid =
  let half prefix =
    P.derive_from (P.fold_concat P.fnv_basis [ prefix; dcid ]) "token"
  in
  half "srt:" ^ half "srt2:"
