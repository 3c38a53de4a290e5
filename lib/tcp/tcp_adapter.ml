module Rng = Prognosis_sul.Rng
module Network = Prognosis_sul.Network
module Adapter = Prognosis_sul.Adapter
module Inet = Prognosis_sul.Inet

type concrete = Tcp_wire.segment

let create ?server_config ?(network = Network.reliable) ~seed () =
  let rng = Rng.create seed in
  let server_rng = Rng.split rng in
  let client_rng = Rng.split rng in
  let channel_rng = Rng.split rng in
  let server = Tcp_server.create ?config:server_config server_rng in
  let dst_port = (Tcp_server.config server).Tcp_server.port in
  let client = Tcp_client.create ~dst_port client_rng in
  let channel = Network.create ~config:network ~seed channel_rng in
  let reset () =
    Tcp_server.reset server;
    Tcp_client.reset client
  in
  (* Segments travel inside real IPv4 datagrams (Example 3.1). The
     loops below are built once per adapter: a step allocates the
     datagrams, segments and lists it returns, and no closures. *)
  let client_ip = 0x0A000001 and server_ip = 0x0A000002 in
  let rec serve = function
    | [] -> []
    | datagram :: rest -> (
        match Inet.unwrap_tcp datagram with
        | Ok segment_bytes -> (
            let responses = Tcp_server.handle_bytes server segment_bytes in
            match rest with [] -> responses | _ -> responses @ serve rest)
        | Error _ -> serve rest)
  in
  let rec decode = function
    | [] -> []
    | datagram :: rest -> (
        match Inet.unwrap_tcp datagram with
        | Ok bytes -> (
            match Tcp_wire.decode bytes with
            | Ok seg -> seg :: decode rest
            | Error _ -> decode rest)
        | Error _ -> decode rest)
  in
  (* Responses also cross the network back to the client, in order. *)
  let rec deliver = function
    | [] -> []
    | tcp_bytes :: rest -> (
        let received =
          decode
            (Network.transmit channel
               (Inet.wrap_tcp ~src:server_ip ~dst:client_ip tcp_bytes))
        in
        match rest with [] -> received | _ -> received @ deliver rest)
  in
  let rec absorb = function
    | [] -> []
    | seg :: rest -> (
        Tcp_client.absorb client seg;
        match Tcp_alphabet.abstract seg with
        | Some symbol -> symbol :: absorb rest
        | None -> absorb rest)
  in
  let step symbol =
    let request = Tcp_client.concretize client symbol in
    let received =
      deliver
        (serve
           (Network.transmit channel
              (Inet.wrap_tcp ~src:client_ip ~dst:server_ip
                 (Tcp_wire.encode request))))
    in
    (absorb received, [ request ], received)
  in
  Adapter.create ~description:"tcp" ~reset ~step ()

let sul ?server_config ?network ~seed () =
  Adapter.to_sul (create ?server_config ?network ~seed ())
