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
let clear t = t.keys <- None

let derive_master t ~client_random ~server_random ~premaster =
  let inputs =
    P.fold_concat P.fnv_basis
      [ client_random; "|"; server_random; "|"; premaster ]
  in
  (* the master secret is only ever absorbed, never sent *)
  let master = P.derive_key inputs "master" in
  t.keys <-
    Some
      {
        client_key = P.derive_key master "client";
        server_key = P.derive_key master "server";
        client_verify = P.derive_from master "finished|client";
        server_verify = P.derive_from master "finished|server";
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

let seal t direction ~epoch ~seq buf off len =
  match t.keys with
  | None -> false
  | Some keys ->
      let n = nonce keys direction ~epoch ~seq in
      P.seal ~stream:n ~auth:(auth n) buf off len;
      true

let open_ t direction ~epoch ~seq data off len =
  match t.keys with
  | None -> None
  | Some keys ->
      let n = nonce keys direction ~epoch ~seq in
      P.open_ ~stream:n ~auth:(auth n) data off len

let verify_data t direction =
  match (t.keys, direction) with
  | None, _ -> ""
  | Some keys, Client_write -> keys.client_verify
  | Some keys, Server_write -> keys.server_verify
