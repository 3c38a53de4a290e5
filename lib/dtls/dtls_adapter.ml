module Rng = Prognosis_sul.Rng
module Network = Prognosis_sul.Network
module Adapter = Prognosis_sul.Adapter
module Inet = Prognosis_sul.Inet

type concrete = Dtls_wire.record_

let create ?server_config ?(network = Network.reliable) ~seed () =
  let rng = Rng.create seed in
  let server = Dtls_server.create ?config:server_config (Rng.split rng) in
  let client = Dtls_client.create (Rng.split rng) in
  let channel = Network.create ~config:network ~seed (Rng.split rng) in
  let reset () =
    Dtls_server.reset server;
    Dtls_client.reset client
  in
  (* DTLS rides in UDP in IPv4, like QUIC. The loops below are built
     once per adapter, so a step allocates no closures. *)
  let client_ip = 0x0A000001 and server_ip = 0x0A000002 in
  let rec serve = function
    | [] -> []
    | datagram :: rest -> (
        match Inet.unwrap_udp datagram with
        | Ok (_, payload) -> (
            let responses = Dtls_server.handle_datagram server payload in
            match rest with [] -> responses | _ -> responses @ serve rest)
        | Error _ -> serve rest)
  in
  let rec absorb = function
    | [] -> []
    | datagram :: rest -> (
        match Inet.unwrap_udp datagram with
        | Ok (_, payload) -> (
            match Dtls_client.absorb client payload with
            | Some record -> record :: absorb rest
            | None -> absorb rest)
        | Error _ -> absorb rest)
  in
  (* Responses cross the network back to the client, in order. *)
  let rec deliver = function
    | [] -> []
    | payload :: rest -> (
        let received =
          absorb
            (Network.transmit channel
               (Inet.wrap_udp ~src:server_ip ~dst:client_ip ~src_port:4433
                  ~dst_port:50000 payload))
        in
        match rest with [] -> received | _ -> received @ deliver rest)
  in
  let rec abstract = function
    | [] -> []
    | record :: rest -> (
        match Dtls_alphabet.abstract record with
        | Some a -> a :: abstract rest
        | None -> abstract rest)
  in
  let step symbol =
    match Dtls_client.concretize client symbol with
    | None -> ([], [], [])
    | Some (wire, request) ->
        let received =
          deliver
            (serve
               (Network.transmit channel
                  (Inet.wrap_udp ~src:client_ip ~dst:server_ip ~src_port:50000
                     ~dst_port:4433 wire)))
        in
        (abstract received, [ request ], received)
  in
  (Adapter.create ~description:"dtls" ~reset ~step (), client)

let sul ?server_config ?network ~seed () =
  Adapter.to_sul (fst (create ?server_config ?network ~seed ()))
