module Rng = Prognosis_sul.Rng
module P = Quic_packet
module C = Quic_crypto

type config = { retry_port_bug : bool; pns_reset_on_retry : bool }

let default_config = { retry_port_bug = false; pns_reset_on_retry = true }

(* Flow-control limits the client announces: the initial values are
   deliberately smaller than the server's 80-byte response body so the
   server hits the stream limit and must emit STREAM_DATA_BLOCKED. *)
let initial_max_data = 100
let initial_max_stream_data = 50
let raised_max_data = 1000
let raised_max_stream_data = 200

type t = {
  cfg : config;
  rng : Rng.t;
  mutable port_ : int;
  mutable scid : string;
  mutable dcid : string;
  mutable odcid : string;
  mutable crypto : C.t;
  mutable client_random : string;
  mutable initial_pn : int;
  mutable handshake_pn : int;
  mutable app_pn : int;
  mutable largest : (P.ptype * int) list;
  mutable retry_token : string;
  mutable have_server_hello : bool;
  mutable server_crypto : string;
  mutable handshake_done_ : bool;
  mutable closed : bool;
  mutable stream_sent : bool;
  mutable msd_announced : int;
  mutable md_announced : int;
  mutable recv_stream_bytes : int;
  mutable ncid_seqs : int list;
  mutable sdb_values : int list;
  mutable flow_violation_ : bool;
  mutable queue : Frame.t list;
      (* reactive frames held back until the learner requests a matching
         symbol (the paper's Listing-1 queue, instrumentation property 1) *)
  mutable tokens_for_dcid : string;
  mutable tokens_for_odcid : string;
  mutable tokens_ : string list;
      (* stateless-reset tokens for the cids above; cache keyed by
         physical equality, so a cid swap always recomputes *)
}

let reset t =
  t.port_ <- 50000 + Rng.int t.rng 10000;
  t.scid <- Rng.bytes t.rng P.cid_length;
  t.odcid <- Rng.bytes t.rng P.cid_length;
  t.dcid <- t.odcid;
  t.crypto <- C.create ();
  C.install_initial t.crypto ~dcid:t.odcid;
  t.client_random <- Rng.hex t.rng 8;
  t.initial_pn <- 0;
  t.handshake_pn <- 0;
  t.app_pn <- 0;
  t.largest <- [];
  t.retry_token <- "";
  t.have_server_hello <- false;
  t.server_crypto <- "";
  t.handshake_done_ <- false;
  t.closed <- false;
  t.stream_sent <- false;
  t.msd_announced <- initial_max_stream_data;
  t.md_announced <- initial_max_data;
  t.recv_stream_bytes <- 0;
  t.ncid_seqs <- [];
  t.sdb_values <- [];
  t.flow_violation_ <- false;
  t.queue <- []

let create ?(config = default_config) rng =
  let t =
    {
      cfg = config;
      rng;
      port_ = 0;
      scid = "";
      dcid = "";
      odcid = "";
      crypto = C.create ();
      client_random = "";
      initial_pn = 0;
      handshake_pn = 0;
      app_pn = 0;
      largest = [];
      retry_token = "";
      have_server_hello = false;
      server_crypto = "";
      handshake_done_ = false;
      closed = false;
      stream_sent = false;
      msd_announced = initial_max_stream_data;
      md_announced = initial_max_data;
      recv_stream_bytes = 0;
      ncid_seqs = [];
      sdb_values = [];
      flow_violation_ = false;
      queue = [];
      tokens_for_dcid = "";
      tokens_for_odcid = "";
      tokens_ = [];
    }
  in
  reset t;
  t

let port t = t.port_

let space_key (ptype : P.ptype) : P.ptype =
  match ptype with P.Zero_rtt -> P.Short | other -> other

let largest_received t ptype =
  try List.assoc (space_key ptype) t.largest with Not_found -> -1

let note_received t (p : P.t) =
  let key = space_key p.P.ptype in
  let current = largest_received t key in
  t.largest <- (key, max current p.P.pn) :: List.remove_assoc key t.largest

let next_pn t (ptype : P.ptype) =
  match ptype with
  | P.Initial ->
      let pn = t.initial_pn in
      t.initial_pn <- pn + 1;
      pn
  | P.Handshake ->
      let pn = t.handshake_pn in
      t.handshake_pn <- pn + 1;
      pn
  | P.Short | P.Zero_rtt ->
      let pn = t.app_pn in
      t.app_pn <- pn + 1;
      pn
  | P.Retry | P.Version_negotiation | P.Stateless_reset -> -1

let ack_frame t ptype =
  Frame.Ack { largest = max 0 (largest_received t ptype); delay = 0; first_range = 0 }

let build t ptype ?(token = "") frames =
  let pn = next_pn t ptype in
  let packet = P.make ptype ~dcid:t.dcid ~scid:t.scid ~token ~pn ~frames in
  match P.encode ~crypto:t.crypto ~sender:C.Client_to_server packet with
  | Some wire -> Some (wire, packet)
  | None -> None

let client_hello t =
  String.concat ""
    [
      "CH:";
      t.client_random;
      ";md=";
      string_of_int initial_max_data;
      ";msd=";
      string_of_int initial_max_stream_data;
    ]

let concretize t symbol =
  match symbol with
  | Quic_alphabet.Initial_crypto ->
      build t P.Initial ~token:t.retry_token
        [ Frame.Crypto { offset = 0; data = client_hello t } ]
  | Quic_alphabet.Initial_ack_hsd ->
      build t P.Initial ~token:t.retry_token
        [ ack_frame t P.Initial; Frame.Handshake_done ]
  | Quic_alphabet.Handshake_ack_crypto ->
      if not t.have_server_hello then None
      else
        build t P.Handshake
          [ ack_frame t P.Handshake; Frame.Crypto { offset = 0; data = "CFIN" } ]
  | Quic_alphabet.Handshake_ack_hsd ->
      if not t.have_server_hello then None
      else build t P.Handshake [ ack_frame t P.Handshake; Frame.Handshake_done ]
  | Quic_alphabet.Short_ack_flow ->
      if not t.have_server_hello then None
      else begin
        t.md_announced <- raised_max_data;
        t.msd_announced <- raised_max_stream_data;
        build t P.Short
          [
            ack_frame t P.Short;
            Frame.Max_data raised_max_data;
            Frame.Max_stream_data { stream_id = 0; max = raised_max_stream_data };
          ]
      end
  | Quic_alphabet.Short_ack_stream ->
      if not t.have_server_hello then None
      else begin
        t.stream_sent <- true;
        build t P.Short
          [
            ack_frame t P.Short;
            Frame.Stream { id = 0; offset = 0; data = "GET /index"; fin = true };
          ]
      end
  | Quic_alphabet.Short_ack_hsd ->
      if not t.have_server_hello then None
      else build t P.Short [ ack_frame t P.Short; Frame.Handshake_done ]
  | Quic_alphabet.Short_ack_ping ->
      if not t.have_server_hello then None
      else build t P.Short [ ack_frame t P.Short; Frame.Ping ]
  | Quic_alphabet.Short_ack_path_challenge ->
      if not t.have_server_hello then None
      else
        build t P.Short
          [ ack_frame t P.Short; Frame.Path_challenge "\x01\x02\x03\x04\x05\x06\x07\x08" ]
  | Quic_alphabet.Short_ack_path_response -> (
      (* Only serviceable from the reactive queue: the response data
         must echo a server challenge we actually received. *)
      match
        List.partition
          (fun f -> Frame.kind f = Frame.K_path_response)
          t.queue
      with
      | response :: _, rest ->
          t.queue <- rest;
          build t P.Short [ ack_frame t P.Short; response ]
      | [], _ -> None)

let migrate t = t.port_ <- 50000 + Rng.int t.rng 10000
let queued_frames t = List.length t.queue

let initiate_key_update t = C.update_application t.crypto
let key_phase t = C.application_phase t.crypto

let send_frames t ptype frames =
  match ptype with
  | P.Initial -> build t P.Initial ~token:t.retry_token frames
  | P.Handshake | P.Short | P.Zero_rtt -> build t ptype frames
  | P.Retry | P.Version_negotiation | P.Stateless_reset ->
      invalid_arg "Quic_client.send_frames: clients cannot send this packet type"

type absorbed =
  | Packet of Quic_packet.t
  | Reset
  | Junk of string

let reset_tokens t =
  (* memoized per (dcid, odcid): recomputed only when a Retry or a
     server scid changes the destination cid, not on every datagram *)
  if t.tokens_for_dcid != t.dcid || t.tokens_for_odcid != t.odcid then begin
    t.tokens_for_dcid <- t.dcid;
    t.tokens_for_odcid <- t.odcid;
    t.tokens_ <-
      List.sort_uniq compare
        [
          C.stateless_reset_token ~dcid:t.dcid;
          C.stateless_reset_token ~dcid:t.odcid;
        ]
  end;
  t.tokens_

let parse_server_hello data =
  (* The SH may share a packet with other frames; CRYPTO data begins
     with "SH:". *)
  if String.length data >= 3 && String.sub data 0 3 = "SH:" then
    Some (String.sub data 3 (String.length data - 3))
  else None

let process_frame t (frame : Frame.t) =
  match frame with
  | Frame.Crypto { data; _ } -> (
      t.server_crypto <- t.server_crypto ^ data;
      match parse_server_hello data with
      | Some server_random ->
          t.have_server_hello <- true;
          C.install_handshake t.crypto ~client_random:t.client_random
            ~server_random
      | None -> ())
  | Frame.Handshake_done -> t.handshake_done_ <- true
  | Frame.Connection_close _ -> t.closed <- true
  | Frame.New_connection_id { seq; _ } -> t.ncid_seqs <- t.ncid_seqs @ [ seq ]
  | Frame.Stream_data_blocked { max; _ } -> t.sdb_values <- t.sdb_values @ [ max ]
  | Frame.Stream { offset; data; _ } ->
      let upto = offset + String.length data in
      t.recv_stream_bytes <- max t.recv_stream_bytes upto;
      if upto > t.msd_announced then t.flow_violation_ <- true
  | Frame.New_token token -> t.retry_token <- token
  | Frame.Path_challenge data ->
      (* A real client would answer immediately; the instrumented one
         queues the response for the learner (property 1). *)
      t.queue <- t.queue @ [ Frame.Path_response data ]
  | Frame.Padding _ | Frame.Ping | Frame.Ack _ | Frame.Reset_stream _
  | Frame.Stop_sending _ | Frame.Max_data _ | Frame.Max_stream_data _
  | Frame.Max_streams _ | Frame.Data_blocked _ | Frame.Streams_blocked _
  | Frame.Retire_connection_id _ | Frame.Path_response _ ->
      ()

let absorb t data =
  match
    P.decode ~crypto:t.crypto ~sender:C.Server_to_client
      ~reset_tokens:(reset_tokens t) data
  with
  | P.Reset_detected _ ->
      t.closed <- true;
      Reset
  | P.Undecodable reason -> Junk reason
  | P.Decoded p ->
      (match p.P.ptype with
      | P.Retry ->
          t.retry_token <- p.P.token;
          t.dcid <- p.P.scid;
          (* New initial keys are derived from the Retry's source
             connection id (RFC 9001 §5.2). *)
          C.install_initial t.crypto ~dcid:t.dcid;
          if t.cfg.pns_reset_on_retry then t.initial_pn <- 0;
          if t.cfg.retry_port_bug then
            (* The Issue-3 bug: the token is echoed from a brand-new
               socket bound to a random free port. *)
            t.port_ <- 50000 + Rng.int t.rng 10000
      | P.Version_negotiation -> ()
      | _ ->
          note_received t p;
          if p.P.scid <> "" then t.dcid <- p.P.scid;
          List.iter (process_frame t) p.P.frames);
      Packet p

let handshake_complete t = t.handshake_done_
let connection_closed t = t.closed
let ncid_sequence_numbers t = t.ncid_seqs
let stream_data_blocked_values t = t.sdb_values
let received_stream_bytes t = t.recv_stream_bytes
let announced_max_stream_data t = t.msd_announced
let flow_violation t = t.flow_violation_
