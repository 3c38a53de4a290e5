module Rng = Prognosis_sul.Rng
module P = Quic_packet
module C = Quic_crypto

type phase =
  | Idle
  | Address_validation
  | Handshake_in_progress
  | Confirmed
  | Closing

let phase_to_string = function
  | Idle -> "idle"
  | Address_validation -> "address-validation"
  | Handshake_in_progress -> "handshaking"
  | Confirmed -> "confirmed"
  | Closing -> "closing"

type stream = {
  mutable recv_len : int;  (** request bytes received *)
  mutable sent : int;  (** response bytes sent *)
  mutable send_limit : int;  (** client's MAX_STREAM_DATA for us *)
  mutable fin_sent : bool;
  mutable blocked_at : int;  (** offset of the last STREAM_DATA_BLOCKED, -1 if none *)
}

type t = {
  prof : Quic_profile.t;
  rng : Rng.t;
  mutable crypto : C.t;
  mutable phase : phase;
  mutable scid_ : string;
  mutable client_cid : string;  (** client's scid: dcid of our responses *)
  mutable odcid : string;
  mutable retry_scid : string;
  mutable retry_token : string;
  mutable validated_port : int;
  mutable largest_pre_retry_pn : int;
  mutable initial_pn : int;
  mutable handshake_pn : int;
  mutable app_pn : int;
  mutable largest_initial : int;  (** largest pn received, -1 if none *)
  mutable largest_handshake : int;
  mutable largest_app : int;  (** 1-RTT and 0-RTT share a space *)
  mutable conn_max_data : int;  (** client's MAX_DATA limit on our sending *)
  mutable total_sent : int;
  streams : (int, stream) Hashtbl.t;
  mutable ncid_seq : int;
  mutable active_port : int;  (** the currently validated path *)
  mutable outstanding_challenge : string option;
  mutable reset_token : (string * string) option;
      (** a connection id and its stateless-reset token *)
}

let create ?(profile = Quic_profile.quiche_like) rng =
  {
    prof = profile;
    rng;
    crypto = C.create ();
    phase = Idle;
    scid_ = "";
    client_cid = "";
    odcid = "";
    retry_scid = "";
    retry_token = "";
    validated_port = -1;
    largest_pre_retry_pn = -1;
    initial_pn = 0;
    handshake_pn = 0;
    app_pn = 0;
    largest_initial = -1;
    largest_handshake = -1;
    largest_app = -1;
    conn_max_data = 0;
    total_sent = 0;
    streams = Hashtbl.create 4;
    ncid_seq = 0;
    active_port = -1;
    outstanding_challenge = None;
    reset_token = None;
  }

let reset t =
  t.crypto <- C.create ();
  t.phase <- Idle;
  t.scid_ <- "";
  t.client_cid <- "";
  t.odcid <- "";
  t.retry_scid <- "";
  t.retry_token <- "";
  t.validated_port <- -1;
  t.largest_pre_retry_pn <- -1;
  t.initial_pn <- 0;
  t.handshake_pn <- 0;
  t.app_pn <- 0;
  t.largest_initial <- -1;
  t.largest_handshake <- -1;
  t.largest_app <- -1;
  t.conn_max_data <- 0;
  t.total_sent <- 0;
  Hashtbl.reset t.streams;
  t.ncid_seq <- 0;
  t.active_port <- -1;
  t.outstanding_challenge <- None

let profile t = t.prof
let phase_name t = phase_to_string t.phase
let scid t = t.scid_

(* --- packet-number bookkeeping --- *)

let note_received t (p : P.t) =
  match p.P.ptype with
  | P.Initial -> t.largest_initial <- max t.largest_initial p.P.pn
  | P.Handshake -> t.largest_handshake <- max t.largest_handshake p.P.pn
  | P.Short | P.Zero_rtt -> t.largest_app <- max t.largest_app p.P.pn
  | P.Retry | P.Version_negotiation | P.Stateless_reset -> ()

let largest_received t (ptype : P.ptype) =
  match ptype with
  | P.Initial -> t.largest_initial
  | P.Handshake -> t.largest_handshake
  | P.Short | P.Zero_rtt -> t.largest_app
  | P.Retry | P.Version_negotiation | P.Stateless_reset -> -1

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

let ack_frame t ptype = Frame.ack (max 0 (largest_received t ptype))

(* --- response construction --- *)

let send t ptype frames =
  let pn = next_pn t ptype in
  let packet =
    {
      P.ptype;
      version = P.draft29;
      dcid = t.client_cid;
      scid = t.scid_;
      token = "";
      pn;
      frames;
    }
  in
  match P.encode ~crypto:t.crypto ~sender:C.Server_to_client packet with
  | Some wire -> [ wire ]
  | None -> []

let connection_close t ?(space = P.Handshake) ~error ~reason () =
  t.phase <- Closing;
  let frame =
    Frame.Connection_close { error; frame_type = 0; reason; app = false }
  in
  (* Close in the space of the offending packet, downgrading to a space
     whose keys are actually installed. *)
  match space with
  | P.Short when C.has_level t.crypto C.Application_level ->
      send t P.Short [ frame ]
  | _ ->
      if C.has_level t.crypto C.Handshake_level then send t P.Handshake [ frame ]
      else send t P.Initial [ frame ]

(* Every datagram in Closing may draw a reset: the token is derived
   once per connection id. *)
let stateless_reset t =
  if Rng.bool t.rng t.prof.Quic_profile.reset_after_close_prob then begin
    let token =
      match t.reset_token with
      | Some (cid, token) when String.equal cid t.scid_ -> token
      | Some _ | None ->
          let token = C.stateless_reset_token ~dcid:t.scid_ in
          t.reset_token <- Some (t.scid_, token);
          token
    in
    [ P.encode_stateless_reset ~rand:(Rng.bytes t.rng) ~token ]
  end
  else []

(* --- handshake crypto payloads --- *)

(* [String.sub data off len = s], without the copy *)
let rec equal_from data off len s i =
  i = len
  || String.unsafe_get data (off + i) = String.unsafe_get s i
     && equal_from data off len s (i + 1)

let equal_at data off len s = len = String.length s && equal_from data off len s 0

(* the first [c] in [data[i, stop)], or [stop] *)
let rec find data c i stop =
  if i >= stop || String.unsafe_get data i = c then i else find data c (i + 1) stop

(* [int_of_string_opt] of [data[off, stop)]: plain decimals are read in
   place, anything else goes through [int_of_string_opt] itself *)
let rec digits data off stop i v =
  if i = stop then Some v
  else
    match String.unsafe_get data i with
    | '0' .. '9' as c -> digits data off stop (i + 1) ((v * 10) + Char.code c - 48)
    | _ -> int_of_string_opt (String.sub data off (stop - off))

let int_at data off stop =
  if stop > off && stop - off <= 18 then digits data off stop off 0
  else int_of_string_opt (String.sub data off (stop - off))

(* the value of the last parameter named [key] from [off] on *)
let rec lookup data off key acc =
  if off > String.length data then acc
  else
    let stop = find data ';' off (String.length data) in
    let eq = find data '=' off stop in
    let acc =
      if eq < stop && equal_at data off (eq - off) key then int_at data (eq + 1) stop
      else acc
    in
    lookup data (stop + 1) key acc

(* The transport parameters ride in the ClientHello in this
   simulation: "CH:<random>;md=<max_data>;msd=<max_stream_data>". The
   parser walks the string in place: a parameter is the text between
   two ';', its key the text before its first '=', and a later
   parameter with the same key overrides an earlier one. *)
let parse_client_hello data =
  let ch = find data ';' 0 (String.length data) in
  if ch > 3 && String.starts_with ~prefix:"CH:" data then
    Some
      ( String.sub data 3 (ch - 3),
        lookup data (ch + 1) "md" None,
        lookup data (ch + 1) "msd" None )
  else None

(* the CRYPTO frames' data, concatenated *)
let rec crypto_data = function
  | [] -> ""
  | Frame.Crypto { data; _ } :: rest -> (
      match crypto_data rest with "" -> data | more -> data ^ more)
  | _ :: rest -> crypto_data rest

let has_handshake_done frames =
  List.exists (fun f -> Frame.kind f = Frame.K_handshake_done) frames

(* --- handshake steps --- *)

let begin_handshake t ~port (p : P.t) ch_random md msd =
  t.client_cid <- p.P.scid;
  t.active_port <- port;
  let server_random = Rng.hex t.rng 8 in
  C.install_handshake t.crypto ~client_random:ch_random ~server_random;
  t.conn_max_data <- (match md with Some v -> v | None -> 1 lsl 10);
  let msd_value = match msd with Some v -> v | None -> 1 lsl 9 in
  Hashtbl.replace t.streams 0
    { recv_len = 0; sent = 0; send_limit = msd_value; fin_sent = false; blocked_at = -1 };
  t.phase <- Handshake_in_progress;
  let sh = "SH:" ^ server_random in
  (* built last to first: the ";FIN" packet takes the first Handshake
     packet number *)
  let fin = send t P.Handshake [ Frame.Crypto { offset = 7; data = ";FIN" } ] in
  let ee = send t P.Handshake [ Frame.Crypto { offset = 0; data = "EE;CERT" } ] in
  let initial =
    send t P.Initial [ ack_frame t P.Initial; Frame.Crypto { offset = 0; data = sh } ]
  in
  initial @ ee @ fin

let make_retry t (p : P.t) ~port =
  t.retry_scid <- Rng.bytes t.rng P.cid_length;
  t.retry_token <- Rng.bytes t.rng 16;
  t.validated_port <- port;
  t.largest_pre_retry_pn <- p.P.pn;
  t.phase <- Address_validation;
  let retry =
    P.make P.Retry ~dcid:p.P.scid ~scid:t.retry_scid ~token:t.retry_token
  in
  match P.encode ~crypto:t.crypto ~sender:C.Server_to_client retry with
  | Some wire -> [ wire ]
  | None -> []

(* --- per-phase packet processing --- *)

let handle_initial t ~port (p : P.t) =
  let frames = p.P.frames in
  if has_handshake_done frames then
    connection_close t ~space:P.Initial ~error:0x0A
      ~reason:"client sent HANDSHAKE_DONE" ()
  else begin
    match parse_client_hello (crypto_data frames) with
    | None ->
        (* An Initial without a ClientHello (e.g. pure ACK) is ignored
           before a connection exists. *)
        []
    | Some (ch_random, md, msd) -> (
        match (t.phase, t.prof.Quic_profile.retry) with
        | Idle, Quic_profile.No_retry -> begin_handshake t ~port p ch_random md msd
        | Idle, (Quic_profile.Retry_tolerant_pns_reset | Quic_profile.Retry_abort_on_pns_reset)
          ->
            make_retry t ~port p
        | Address_validation, mode ->
            if p.P.token <> t.retry_token then
              (* Invalid token: drop, address unvalidated. *)
              []
            else if port <> t.validated_port then
              (* Token echoed from a different port: validation fails
                 (the Issue-3 trigger). *)
              []
            else if
              mode = Quic_profile.Retry_abort_on_pns_reset
              && p.P.pn <= t.largest_pre_retry_pn
            then
              connection_close t ~space:P.Initial ~error:0x0A
                ~reason:"packet number space reset after Retry" ()
            else begin_handshake t ~port p ch_random md msd
        | (Handshake_in_progress | Confirmed | Closing), _ ->
            (* Duplicate ClientHello: retransmission; the handshake
               flight is resent. *)
            send t P.Initial [ ack_frame t P.Initial ])
  end

let finish_handshake t =
  t.phase <- Confirmed;
  let done_frames =
    Frame.Handshake_done
    ::
    (if t.prof.Quic_profile.send_new_connection_id then begin
       let mk () =
         let seq = t.ncid_seq in
         t.ncid_seq <- t.ncid_seq + t.prof.Quic_profile.ncid_seq_stride;
         let cid = Rng.bytes t.rng P.cid_length in
         Frame.New_connection_id
           {
             seq;
             retire_prior = 0;
             cid;
             reset_token = C.stateless_reset_token ~dcid:cid;
           }
       in
       t.ncid_seq <- 1;
       let first = mk () in
       let second = mk () in
       [ first; second ]
     end
     else [])
    @
    if t.prof.Quic_profile.send_new_token then
      [ Frame.New_token (Rng.bytes t.rng 16) ]
    else []
  in
  let responses =
    List.concat
      [ send t P.Handshake [ ack_frame t P.Handshake ]; send t P.Short done_frames ]
  in
  (* Handshake confirmed: earlier keys are discarded (RFC 9001 §4.9),
     so stray Initial/Handshake packets can no longer be read. *)
  C.drop_level t.crypto C.Initial_level;
  C.drop_level t.crypto C.Handshake_level;
  responses

let handle_handshake t (p : P.t) =
  if has_handshake_done p.P.frames then
    connection_close t ~space:P.Handshake ~error:0x0A
      ~reason:"client sent HANDSHAKE_DONE" ()
  else begin
    let data = crypto_data p.P.frames in
    match t.phase with
    | Handshake_in_progress when data = "CFIN" -> finish_handshake t
    | Handshake_in_progress ->
        (* ACK-only or unexpected handshake data: nothing to do. *)
        []
    | Idle | Address_validation | Confirmed | Closing -> []
  end

(* Send as much response-body data as flow control allows on a stream
   the client has fully requested on. *)
let pump_stream t id stream =
  let body = t.prof.Quic_profile.response_body in
  let body_len = String.length body in
  if stream.fin_sent || stream.recv_len = 0 then []
  else begin
    let stream_window = stream.send_limit - stream.sent in
    let conn_window = t.conn_max_data - t.total_sent in
    let can_send =
      if t.prof.Quic_profile.ignore_flow_control then max_int
      else min stream_window conn_window
    in
    let remaining = body_len - stream.sent in
    let chunk = min can_send remaining in
    let frames = ref [] in
    if chunk > 0 then begin
      let data = String.sub body stream.sent chunk in
      let fin = stream.sent + chunk = body_len in
      frames := [ Frame.Stream { id; offset = stream.sent; data; fin } ];
      stream.sent <- stream.sent + chunk;
      t.total_sent <- t.total_sent + chunk;
      if fin then stream.fin_sent <- true
    end;
    if (not stream.fin_sent) && stream.sent >= stream.send_limit
       && stream.blocked_at <> stream.sent
    then begin
      (* Blocked by the stream limit: advertise it. The Issue-4 bug
         reports the constant 0 instead of the blocked offset. *)
      let max =
        if t.prof.Quic_profile.stream_data_blocked_zero then 0 else stream.sent
      in
      frames := !frames @ [ Frame.Stream_data_blocked { stream_id = id; max } ];
      stream.blocked_at <- stream.sent
    end;
    !frames
  end

(* The frames of a 1-RTT packet, in order; the reply frames they call
   for are consed onto [rev], newest first. *)
let rec short_frames t ~port rev = function
  | [] -> rev
  | frame :: rest ->
      let rev =
        match frame with
        | Frame.Path_response data when t.outstanding_challenge = Some data ->
            t.outstanding_challenge <- None;
            t.active_port <- port;
            rev
        | Frame.Max_data v ->
            t.conn_max_data <- max t.conn_max_data v;
            rev
        | Frame.Max_stream_data { stream_id; max } ->
            (match Hashtbl.find_opt t.streams stream_id with
            | Some s -> s.send_limit <- Stdlib.max s.send_limit max
            | None -> ());
            rev
        | Frame.Stream { id; offset; data; fin = _ } ->
            (match Hashtbl.find_opt t.streams id with
            | Some s ->
                s.recv_len <- Stdlib.max s.recv_len (offset + String.length data)
            | None ->
                Hashtbl.replace t.streams id
                  {
                    recv_len = offset + String.length data;
                    sent = 0;
                    send_limit = 0;
                    fin_sent = false;
                    blocked_at = -1;
                  });
            rev
        | Frame.Path_challenge data ->
            (* Path validation: echo the 8 challenge bytes. *)
            Frame.Path_response data :: rev
        | Frame.Stop_sending { stream_id; error } -> (
            (* The peer refuses our data: abandon the stream and
               declare its final size. *)
            match Hashtbl.find_opt t.streams stream_id with
            | Some s when not s.fin_sent ->
                s.fin_sent <- true;
                Frame.Reset_stream { stream_id; error; final_size = s.sent } :: rev
            | Some _ | None -> rev)
        | _ -> rev
      in
      short_frames t ~port rev rest

let handle_short t ~port (p : P.t) =
  if has_handshake_done p.P.frames then
    connection_close t ~space:P.Short ~error:0x0A
      ~reason:"client sent HANDSHAKE_DONE" ()
  else if t.phase <> Confirmed then
    (* 1-RTT data before handshake confirmation is not processed. *)
    []
  else begin
    (* Connection migration (RFC 9000 §9): a packet from a new source
       port triggers path validation; the new path is adopted once the
       client echoes our challenge. *)
    let rev =
      if port <> t.active_port && t.outstanding_challenge = None then begin
        let data = Rng.bytes t.rng 8 in
        t.outstanding_challenge <- Some data;
        [ Frame.Path_challenge data ]
      end
      else []
    in
    let rev = short_frames t ~port rev p.P.frames in
    let rev =
      Hashtbl.fold
        (fun id s rev -> List.rev_append (pump_stream t id s) rev)
        t.streams rev
    in
    match rev with
    | _ :: _ -> send t P.Short (ack_frame t P.Short :: List.rev rev)
    | [] ->
        if List.exists Frame.is_ack_eliciting p.P.frames then
          send t P.Short [ ack_frame t P.Short ]
        else []
  end

let install_initial_keys_if_needed t data =
  (* In Idle (or awaiting the post-Retry Initial) the server derives
     initial keys from the long header's destination connection id. *)
  if String.length data > 6 && Char.code data.[0] land 0x80 <> 0 then begin
    let dcid_len = Char.code data.[5] in
    if String.length data >= 6 + dcid_len then begin
      match t.phase with
      | Idle ->
          let dcid = String.sub data 6 dcid_len in
          t.odcid <- dcid;
          t.scid_ <- dcid;
          C.install_initial t.crypto ~dcid
      | Address_validation when equal_at data 6 dcid_len t.retry_scid ->
          t.scid_ <- t.retry_scid;
          C.install_initial t.crypto ~dcid:t.retry_scid
      | Address_validation | Handshake_in_progress | Confirmed | Closing -> ()
    end
  end

let handle_datagram t ~port data =
  match t.phase with
  | Closing -> stateless_reset t
  | _ -> begin
      install_initial_keys_if_needed t data;
      match
        P.decode ~crypto:t.crypto ~sender:C.Client_to_server ~reset_tokens:[] data
      with
      | P.Undecodable _ -> []
      | P.Reset_detected _ -> []
      | P.Decoded p -> begin
          if p.P.ptype <> P.Retry && p.P.ptype <> P.Version_negotiation then
            note_received t p;
          if p.P.version <> P.draft29 && p.P.ptype = P.Initial then begin
            (* Unknown version: offer ours. *)
            let vn =
              P.make P.Version_negotiation ~version:P.draft29 ~dcid:p.P.scid
                ~scid:t.scid_
            in
            match P.encode ~crypto:t.crypto ~sender:C.Server_to_client vn with
            | Some wire -> [ wire ]
            | None -> []
          end
          else begin
            match p.P.ptype with
            | P.Initial -> handle_initial t ~port p
            | P.Handshake -> handle_handshake t p
            | P.Short -> handle_short t ~port p
            | P.Zero_rtt -> []
            | P.Retry | P.Version_negotiation | P.Stateless_reset -> []
          end
        end
    end
