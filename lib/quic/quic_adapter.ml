module Rng = Prognosis_sul.Rng
module Network = Prognosis_sul.Network
module Adapter = Prognosis_sul.Adapter

type concrete = Quic_packet.t

let create ?profile ?client_config ?(network = Network.reliable) ~seed () =
  let rng = Rng.create seed in
  let server_rng = Rng.split rng in
  let client_rng = Rng.split rng in
  let channel_rng = Rng.split rng in
  let server = Quic_server.create ?profile server_rng in
  let client = Quic_client.create ?config:client_config client_rng in
  let channel = Network.create ~config:network ~seed channel_rng in
  let reset () =
    Quic_server.reset server;
    Quic_client.reset client
  in
  let step symbol =
    match Quic_client.concretize client symbol with
    | None ->
        (* The reference implementation cannot realize this symbol in
           its current state: nothing is sent (answer NIL). *)
        ([], [], [])
    | Some (wire, request) ->
        (* QUIC rides in UDP in IPv4; the server reads the source port
           from the UDP header (address validation, Issue 3). *)
        let client_ip = 0x0A000001 and server_ip = 0x0A000002 in
        let deliveries =
          Network.transmit channel
            (Prognosis_sul.Inet.wrap_udp ~src:client_ip ~dst:server_ip
               ~src_port:(Quic_client.port client) ~dst_port:443 wire)
        in
        let responses =
          List.concat_map
            (fun datagram ->
              match Prognosis_sul.Inet.unwrap_udp datagram with
              | Ok (port, payload) ->
                  Quic_server.handle_datagram server ~port payload
              | Error _ -> [])
            deliveries
        in
        let delivered_back =
          List.concat_map
            (fun payload ->
              Network.transmit channel
                (Prognosis_sul.Inet.wrap_udp ~src:server_ip ~dst:client_ip
                   ~src_port:443
                   ~dst_port:(Quic_client.port client) payload))
            responses
          |> List.filter_map (fun datagram ->
                 match Prognosis_sul.Inet.unwrap_udp datagram with
                 | Ok (_, payload) -> Some payload
                 | Error _ -> None)
        in
        let outputs, concrete_out =
          List.filter_map
            (fun payload ->
              match Quic_client.absorb client payload with
              | Quic_client.Packet p ->
                  Some (Quic_alphabet.abstract_packet p, p)
              | Quic_client.Reset ->
                  Some
                    ( Quic_alphabet.abstract_reset,
                      Quic_packet.make Quic_packet.Stateless_reset ~dcid:"" )
              | Quic_client.Junk _ -> None)
            delivered_back
          |> List.split
        in
        (outputs, [ request ], concrete_out)
  in
  (Adapter.create ~description:"quic" ~reset ~step (), client)

let sul ?profile ?client_config ?network ~seed () =
  Adapter.to_sul (fst (create ?profile ?client_config ?network ~seed ()))
