module P = Prognosis_sul.Sim_crypto

type direction = Client_write | Server_write

(* Everything a handshake derives, computed once in [derive_master]:
   the two direction keys as absorbed hash states, and both Finished
   bodies. *)
type keys = {
  client_key : int;
  server_key : int;
  client_verify : string;
  server_verify : string;
}

type t = { mutable keys : keys option }

let create () = { keys = None }

let derive_master t ~client_random ~server_random ~premaster =
  let master =
    P.derive
      (String.concat "|" [ client_random; server_random; premaster ])
      "master"
  in
  let key label = P.fold_string P.fnv_basis (P.derive master label) in
  t.keys <-
    Some
      {
        client_key = key "client";
        server_key = key "server";
        client_verify = P.derive master "finished|client";
        server_verify = P.derive master "finished|server";
      }

let ready t = t.keys <> None
let tag_length = P.tag_length

(* The keystream is seeded from (key, epoch, seq); the tag binds
   key | epoch | seq | plaintext. *)
let nonce keys direction ~epoch ~seq =
  let key =
    match direction with
    | Client_write -> keys.client_key
    | Server_write -> keys.server_key
  in
  P.fold_int (P.fold_int key epoch) seq

let auth nonce = P.fold_byte nonce (Char.code '|')

let seal t direction ~epoch ~seq plaintext =
  match t.keys with
  | None -> None
  | Some keys ->
      let n = nonce keys direction ~epoch ~seq in
      Some (P.seal ~stream:n ~auth:(auth n) plaintext)

let open_ t direction ~epoch ~seq sealed =
  match t.keys with
  | None -> None
  | Some keys ->
      let n = nonce keys direction ~epoch ~seq in
      P.open_ ~stream:n ~auth:(auth n) sealed

let verify_data t direction =
  match (t.keys, direction) with
  | None, _ -> ""
  | Some keys, Client_write -> keys.client_verify
  | Some keys, Server_write -> keys.server_verify
