(* Wrappers that open a ledger span around each call into a layer's
   public functions, and the learn-wire SULs rebuilt from the same
   public calls the protocol adapters make, so that γ, α, codec,
   network and server get spans of their own.

   Every wrapper is behaviour-preserving: a traced op must learn the
   same models with the same exact counters as the untraced op, and the
   workloads check that it does. *)

module Rng = Prognosis_sul.Rng
module Sul = Prognosis_sul.Sul
module Inet = Prognosis_sul.Inet
module Network = Prognosis_sul.Network
module Adapter = Prognosis_sul.Adapter
module Oracle = Prognosis_learner.Oracle
module Testing = Prognosis_automata.Testing
module Eq_oracle = Prognosis_learner.Eq_oracle

let span = Ledger.span

(* --- layers and counters --- *)

let l_learner = Ledger.layer "learner"
let l_eq = Ledger.layer "eq"
let l_suite = Ledger.layer "eq.suite"
let l_cache = Ledger.layer "cache"
let l_exec = Ledger.layer "exec"
let l_service = Ledger.layer "service"
let l_query = Ledger.layer "sul.query"
let l_reset = Ledger.layer "sul.reset"
let l_step = Ledger.layer "sul.step"
let l_network = Ledger.layer "network"
let l_codec_tcp = Ledger.layer "codec.tcp"

type proto = Tcp | Quic | Dtls

let proto_name = function Tcp -> "tcp" | Quic -> "quic" | Dtls -> "dtls"
let protos = [ Tcp; Quic; Dtls ]

let per_proto prefix =
  let ids = List.map (fun p -> (p, Ledger.layer (prefix ^ proto_name p))) protos in
  fun p -> List.assoc p ids

let l_gamma = per_proto "adapter.gamma."
let l_alpha = per_proto "adapter.alpha."
let l_server = per_proto "server."
let c_mq_words = Ledger.counter "mq.words"
let c_eq_words = Ledger.counter "eq.words"
let c_datagrams = Ledger.counter "network.datagrams"
let c_bytes = Ledger.counter "network.bytes"

(* --- oracle and SUL wrappers --- *)

(* The wrapped oracle keeps [mq]'s [stats] record and exposes
   [ask_batch] exactly when [mq] does: Eq_oracle switches its query
   stream on that field, so dropping or adding it would change what is
   measured. *)
let wrap_mq ?layer ?counter (mq : ('i, 'o) Oracle.membership) =
  let around f = match layer with Some l -> span l f | None -> f () in
  let count n = Option.iter (fun c -> Ledger.add c n) counter in
  {
    mq with
    Oracle.ask =
      (fun w ->
        count 1;
        around (fun () -> mq.Oracle.ask w));
    ask_batch =
      Option.map
        (fun f ws ->
          count (List.length ws);
          around (fun () -> f ws))
        mq.Oracle.ask_batch;
  }

let timed_mq layer mq = wrap_mq ~layer ~counter:c_mq_words mq

(* The SUL's own membership oracle (Oracle.of_sul): its bookkeeping
   counts towards the sul layer, not towards the cache above it. *)
let sul_oracle sul = wrap_mq ~layer:l_query (Oracle.of_sul sul)

let timed_eq (eq : ('i, 'o) Oracle.equivalence) : ('i, 'o) Oracle.equivalence =
 fun mq h ->
  span l_eq (fun () -> eq (wrap_mq ~counter:c_eq_words mq) h)

(* [Eq_oracle.w_method ~extra_states:1 ()] taken apart so the suite
   generation ([Testing.w_method]) gets its own span. *)
let w_method_timed mq h =
  let suite = span l_suite (fun () -> Testing.w_method ~extra_states:1 h) in
  Eq_oracle.fixed_words suite mq h

let timed_sul (sul : ('i, 'o) Sul.t) =
  {
    sul with
    Sul.reset = (fun () -> span l_reset sul.Sul.reset);
    step = (fun x -> span l_step (fun () -> sul.Sul.step x));
  }

(* --- learn-wire SULs, rebuilt span by span --- *)

let client_ip = 0x0A000001
let server_ip = 0x0A000002

let transmit channel datagram =
  Ledger.add c_datagrams 1;
  Ledger.add c_bytes (String.length datagram);
  span l_network (fun () -> Network.transmit channel datagram)

let net f = span l_network f

(* Mirrors [Tcp_adapter.create] with the default server config. *)
let tcp_sul ~seed =
  let module W = Prognosis_tcp.Tcp_wire in
  let module C = Prognosis_tcp.Tcp_client in
  let module S = Prognosis_tcp.Tcp_server in
  let rng = Rng.create seed in
  let server_rng = Rng.split rng in
  let client_rng = Rng.split rng in
  let channel_rng = Rng.split rng in
  let server = S.create ~config:S.default_config server_rng in
  let client = C.create ~dst_port:(S.config server).S.port client_rng in
  let channel = Network.create ~config:Network.reliable ~seed channel_rng in
  let reset () =
    S.reset server;
    C.reset client
  in
  let step symbol =
    let request = span (l_gamma Tcp) (fun () -> C.concretize client symbol) in
    let bytes = span l_codec_tcp (fun () -> W.encode request) in
    let deliveries =
      transmit channel
        (net (fun () -> Inet.wrap_tcp ~src:client_ip ~dst:server_ip bytes))
    in
    let responses =
      List.concat_map
        (fun datagram ->
          match net (fun () -> Inet.unwrap_tcp datagram) with
          | Ok segment_bytes ->
              span (l_server Tcp) (fun () -> S.handle_bytes server segment_bytes)
          | Error _ -> [])
        deliveries
    in
    let received =
      List.concat_map
        (fun tcp_bytes ->
          transmit channel
            (net (fun () -> Inet.wrap_tcp ~src:server_ip ~dst:client_ip tcp_bytes)))
        responses
      |> List.filter_map (fun datagram ->
             match net (fun () -> Inet.unwrap_tcp datagram) with
             | Ok bytes -> (
                 match span l_codec_tcp (fun () -> W.decode bytes) with
                 | Ok seg -> Some seg
                 | Error _ -> None)
             | Error _ -> None)
    in
    let output =
      span (l_alpha Tcp) (fun () ->
          List.iter (C.absorb client) received;
          List.filter_map Prognosis_tcp.Tcp_alphabet.abstract received)
    in
    (output, [ request ], received)
  in
  timed_sul (Adapter.to_sul (Adapter.create ~description:"tcp" ~reset ~step ()))

(* Mirrors [Quic_adapter.create] with the default client config. *)
let quic_sul ~profile ~seed =
  let module C = Prognosis_quic.Quic_client in
  let module S = Prognosis_quic.Quic_server in
  let module A = Prognosis_quic.Quic_alphabet in
  let rng = Rng.create seed in
  let server_rng = Rng.split rng in
  let client_rng = Rng.split rng in
  let channel_rng = Rng.split rng in
  let server = S.create ~profile server_rng in
  let client = C.create client_rng in
  let channel = Network.create ~config:Network.reliable ~seed channel_rng in
  let reset () =
    S.reset server;
    C.reset client
  in
  let step symbol =
    match span (l_gamma Quic) (fun () -> C.concretize client symbol) with
    | None -> ([], [], [])
    | Some (wire, request) ->
        let deliveries =
          transmit channel
            (net (fun () ->
                 Inet.wrap_udp ~src:client_ip ~dst:server_ip
                   ~src_port:(C.port client) ~dst_port:443 wire))
        in
        let responses =
          List.concat_map
            (fun datagram ->
              match net (fun () -> Inet.unwrap_udp datagram) with
              | Ok (port, payload) ->
                  span (l_server Quic) (fun () ->
                      S.handle_datagram server ~port payload)
              | Error _ -> [])
            deliveries
        in
        let delivered_back =
          List.concat_map
            (fun payload ->
              transmit channel
                (net (fun () ->
                     Inet.wrap_udp ~src:server_ip ~dst:client_ip ~src_port:443
                       ~dst_port:(C.port client) payload)))
            responses
          |> List.filter_map (fun datagram ->
                 match net (fun () -> Inet.unwrap_udp datagram) with
                 | Ok (_, payload) -> Some payload
                 | Error _ -> None)
        in
        let outputs, concrete_out =
          span (l_alpha Quic) (fun () ->
              List.fold_left
                (fun (outs, pkts) absorbed ->
                  match absorbed with
                  | C.Packet p -> (outs @ [ A.abstract_packet p ], pkts @ [ p ])
                  | C.Reset ->
                      ( outs @ [ A.abstract_reset ],
                        pkts
                        @ [
                            Prognosis_quic.Quic_packet.make
                              Prognosis_quic.Quic_packet.Stateless_reset ~dcid:"";
                          ] )
                  | C.Junk _ -> (outs, pkts))
                ([], [])
                (List.map (C.absorb client) delivered_back))
        in
        (outputs, [ request ], concrete_out)
  in
  timed_sul (Adapter.to_sul (Adapter.create ~description:"quic" ~reset ~step ()))

(* Mirrors [Dtls_adapter.create] with the default server config. *)
let dtls_sul ~seed =
  let module C = Prognosis_dtls.Dtls_client in
  let module S = Prognosis_dtls.Dtls_server in
  let rng = Rng.create seed in
  let server = S.create ~config:S.default_config (Rng.split rng) in
  let client = C.create (Rng.split rng) in
  let channel = Network.create ~config:Network.reliable ~seed (Rng.split rng) in
  let reset () =
    S.reset server;
    C.reset client
  in
  let step symbol =
    match span (l_gamma Dtls) (fun () -> C.concretize client symbol) with
    | None -> ([], [], [])
    | Some (wire, request) ->
        let deliveries =
          transmit channel
            (net (fun () ->
                 Inet.wrap_udp ~src:client_ip ~dst:server_ip ~src_port:50000
                   ~dst_port:4433 wire))
        in
        let responses =
          List.concat_map
            (fun datagram ->
              match net (fun () -> Inet.unwrap_udp datagram) with
              | Ok (_, payload) ->
                  span (l_server Dtls) (fun () -> S.handle_datagram server payload)
              | Error _ -> [])
            deliveries
        in
        let received =
          List.concat_map
            (fun payload ->
              transmit channel
                (net (fun () ->
                     Inet.wrap_udp ~src:server_ip ~dst:client_ip ~src_port:4433
                       ~dst_port:50000 payload)))
            responses
          |> List.filter_map (fun datagram ->
                 match net (fun () -> Inet.unwrap_udp datagram) with
                 | Ok (_, payload) ->
                     span (l_alpha Dtls) (fun () -> C.absorb client payload)
                 | Error _ -> None)
        in
        let output =
          span (l_alpha Dtls) (fun () ->
              List.filter_map Prognosis_dtls.Dtls_alphabet.abstract received)
        in
        (output, [ request ], received)
  in
  timed_sul (Adapter.to_sul (Adapter.create ~description:"dtls" ~reset ~step ()))
