module Rng = Prognosis_sul.Rng
module Network = Prognosis_sul.Network
module Adapter = Prognosis_sul.Adapter
module Inet = Prognosis_sul.Inet

type concrete = Quic_packet.t

(* the concrete stand-in for a detected stateless reset *)
let reset_packet = Quic_packet.make Quic_packet.Stateless_reset ~dcid:""

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
  (* QUIC rides in UDP in IPv4; the server reads the source port from
     the UDP header (address validation, Issue 3). The loops below are
     built once per adapter, so a step allocates no closures. *)
  let client_ip = 0x0A000001 and server_ip = 0x0A000002 in
  let rec serve = function
    | [] -> []
    | datagram :: rest -> (
        match Inet.unwrap_udp datagram with
        | Ok (port, payload) -> (
            let responses = Quic_server.handle_datagram server ~port payload in
            match rest with [] -> responses | _ -> responses @ serve rest)
        | Error _ -> serve rest)
  in
  let rec unwrap = function
    | [] -> []
    | datagram :: rest -> (
        match Inet.unwrap_udp datagram with
        | Ok (_, payload) -> payload :: unwrap rest
        | Error _ -> unwrap rest)
  in
  (* Responses cross the network back to the client, in order. *)
  let rec deliver = function
    | [] -> []
    | payload :: rest -> (
        let received =
          unwrap
            (Network.transmit channel
               (Inet.wrap_udp ~src:server_ip ~dst:client_ip ~src_port:443
                  ~dst_port:(Quic_client.port client) payload))
        in
        match rest with [] -> received | _ -> received @ deliver rest)
  in
  (* α over what the client absorbs: abstract outputs and packets *)
  let rec absorb = function
    | [] -> ([], [])
    | payload :: rest -> (
        match Quic_client.absorb client payload with
        | Quic_client.Packet p ->
            let outputs, packets = absorb rest in
            (Quic_alphabet.abstract_packet p :: outputs, p :: packets)
        | Quic_client.Reset ->
            let outputs, packets = absorb rest in
            (Quic_alphabet.abstract_reset :: outputs, reset_packet :: packets)
        | Quic_client.Junk _ -> absorb rest)
  in
  let step symbol =
    match Quic_client.concretize client symbol with
    | None ->
        (* The reference implementation cannot realize this symbol in
           its current state: nothing is sent (answer NIL). *)
        ([], [], [])
    | Some (wire, request) ->
        let outputs, concrete_out =
          absorb
            (deliver
               (serve
                  (Network.transmit channel
                     (Inet.wrap_udp ~src:client_ip ~dst:server_ip
                        ~src_port:(Quic_client.port client) ~dst_port:443 wire))))
        in
        (outputs, [ request ], concrete_out)
  in
  (Adapter.create ~description:"quic" ~reset ~step (), client)

let sul ?profile ?client_config ?network ~seed () =
  Adapter.to_sul (fst (create ?profile ?client_config ?network ~seed ()))
