module Rng = Prognosis_sul.Rng
open Tcp_wire

type state = Listen | Syn_rcvd | Established | Close_wait | Last_ack | Closed

let state_to_string = function
  | Listen -> "LISTEN"
  | Syn_rcvd -> "SYN_RCVD"
  | Established -> "ESTABLISHED"
  | Close_wait -> "CLOSE_WAIT"
  | Last_ack -> "LAST_ACK"
  | Closed -> "CLOSED"

type config = { port : int; one_shot : bool; challenge_acks : bool }

let default_config = { port = 443; one_shot = true; challenge_acks = true }

type t = {
  cfg : config;
  rng : Rng.t;
  mutable state : state;
  mutable iss : int;  (** our initial send sequence *)
  mutable snd_nxt : int;
  mutable rcv_nxt : int;
  mutable peer_port : int;
}

let reset t =
  t.state <- Listen;
  t.iss <- Rng.int t.rng 0x40000000;
  t.snd_nxt <- t.iss;
  t.rcv_nxt <- 0;
  t.peer_port <- 0

let create ?(config = default_config) rng =
  let t =
    { cfg = config; rng; state = Listen; iss = 0; snd_nxt = 0; rcv_nxt = 0; peer_port = 0 }
  in
  reset t;
  t

let state t = t.state
let config t = t.cfg

(* replies carry no payload *)
let reply_with t (peer : segment) ~options ~seq ~ack flags =
  segment ~src_port:t.cfg.port ~dst_port:peer.src_port ~options ~payload:""
    ~seq ~ack flags

let reply t peer ~seq ~ack flags = reply_with t peer ~options:[] ~seq ~ack flags

let rst_flags = { no_flags with rst = true }
let rst_ack_flags = { no_flags with rst = true; ack = true }
let ack_flags = { no_flags with ack = true }
let fin_ack_flags = { no_flags with fin = true; ack = true }
let syn_ack_flags = { no_flags with syn = true; ack = true }
let mss_1400 = [ Mss 1400 ]

(* RST in response to a segment that does not belong to any
   connection: RFC 793 resets carry the offending segment's ACK number
   as their sequence when the segment had ACK set, and ACK the
   segment's end otherwise. *)
let refuse t (seg : segment) =
  if seg.flags.rst then []
  else if seg.flags.ack then
    [ reply t seg ~seq:seg.ack ~ack:0 rst_flags ]
  else
    let seg_len =
      String.length seg.payload + (if seg.flags.syn then 1 else 0)
      + if seg.flags.fin then 1 else 0
    in
    [ reply t seg ~seq:0 ~ack:(seq_add seg.seq seg_len) rst_ack_flags ]

let challenge t seg =
  [ reply t seg ~seq:t.snd_nxt ~ack:t.rcv_nxt ack_flags ]


(* Is this segment acceptable for the current connection? The
   simulated link never reorders, so we insist on exact sequence
   match. *)
let in_window t (seg : segment) = seg.seq = t.rcv_nxt
let ack_current t (seg : segment) = seg.flags.ack && seg.ack = t.snd_nxt

let handle_listen t (seg : segment) =
  if seg.flags.rst then []
  else if seg.flags.syn && not seg.flags.ack then begin
    (* Passive open; the SYN+ACK advertises our MSS (capped by the
       peer's, when offered). *)
    t.peer_port <- seg.src_port;
    t.rcv_nxt <- seq_add seg.seq 1;
    t.snd_nxt <- t.iss;
    t.state <- Syn_rcvd;
    let options =
      match find_mss seg with
      | Some peer when peer < 1400 -> [ Mss peer ]
      | Some _ | None -> mss_1400
    in
    let response =
      reply_with t seg ~options ~seq:t.snd_nxt ~ack:t.rcv_nxt syn_ack_flags
    in
    t.snd_nxt <- seq_add t.snd_nxt 1;
    [ response ]
  end
  else refuse t seg

let handle_syn_rcvd t (seg : segment) =
  if seg.flags.rst then begin
    (* Connection aborted; the pending connection is discarded. *)
    t.state <- if t.cfg.one_shot then Closed else Listen;
    []
  end
  else if seg.flags.syn && seg.flags.ack then begin
    (* SYN+ACK in SYN_RCVD is not meaningful: abort with RST. *)
    t.state <- if t.cfg.one_shot then Closed else Listen;
    [ reply t seg ~seq:seg.ack ~ack:0 rst_flags ]
  end
  else if seg.flags.syn then
    (* SYN retransmission: resend our SYN+ACK. *)
    [ reply t seg ~seq:t.iss ~ack:t.rcv_nxt syn_ack_flags ]
  else if not (ack_current t seg && in_window t seg) then
    (* Bad ACK completes nothing; challenge it. *)
    challenge t seg
  else if seg.flags.fin then begin
    (* ACK of our SYN and an immediate FIN: handshake completes and the
       peer half-closes in one step. *)
    t.rcv_nxt <- seq_add t.rcv_nxt 1;
    t.state <- Close_wait;
    challenge t seg
  end
  else if String.length seg.payload > 0 then begin
    t.rcv_nxt <- seq_add t.rcv_nxt (String.length seg.payload);
    t.state <- Established;
    challenge t seg
  end
  else begin
    t.state <- Established;
    []
  end

let handle_established t (seg : segment) =
  if seg.flags.rst then begin
    t.state <- if t.cfg.one_shot then Closed else Listen;
    []
  end
  else if seg.flags.syn then
    if t.cfg.challenge_acks then challenge t seg
    else []
  else if not (ack_current t seg && in_window t seg) then challenge t seg
  else if seg.flags.fin then begin
    t.rcv_nxt <- seq_add t.rcv_nxt (String.length seg.payload + 1);
    t.state <- Close_wait;
    challenge t seg
  end
  else if String.length seg.payload > 0 then begin
    t.rcv_nxt <- seq_add t.rcv_nxt (String.length seg.payload);
    challenge t seg
  end
  else []

let handle_close_wait t (seg : segment) =
  if seg.flags.rst then begin
    t.state <- if t.cfg.one_shot then Closed else Listen;
    []
  end
  else if seg.flags.syn then
    if t.cfg.challenge_acks then challenge t seg else []
  else if not (ack_current t seg && in_window t seg) then challenge t seg
  else if String.length seg.payload > 0 then begin
    (* Data after the peer's FIN: protocol violation, abort. *)
    t.state <- if t.cfg.one_shot then Closed else Listen;
    [ reply t seg ~seq:t.snd_nxt ~ack:0 rst_flags ]
  end
  else if seg.flags.fin then
    (* FIN retransmission: our ACK was lost; re-acknowledge. *)
    challenge t seg
  else begin
    (* The application closes: emit our FIN. *)
    let response = reply t seg ~seq:t.snd_nxt ~ack:t.rcv_nxt fin_ack_flags in
    t.snd_nxt <- seq_add t.snd_nxt 1;
    t.state <- Last_ack;
    [ response ]
  end

let handle_last_ack t (seg : segment) =
  if seg.flags.rst then begin
    t.state <- if t.cfg.one_shot then Closed else Listen;
    []
  end
  else if seg.flags.syn then
    (* Our FIN is outstanding; retransmit it. *)
    [ reply t seg ~seq:(seq_add t.snd_nxt (-1)) ~ack:t.rcv_nxt fin_ack_flags ]
  else if ack_current t seg && in_window t seg then
    if String.length seg.payload > 0 then begin
      t.state <- if t.cfg.one_shot then Closed else Listen;
      [ reply t seg ~seq:t.snd_nxt ~ack:0 rst_flags ]
    end
    else begin
      (* Final ACK of our FIN: fully closed. *)
      t.state <- if t.cfg.one_shot then Closed else Listen;
      []
    end
  else
    [ reply t seg ~seq:(seq_add t.snd_nxt (-1)) ~ack:t.rcv_nxt fin_ack_flags ]

let handle t (seg : segment) =
  if seg.dst_port <> t.cfg.port then refuse t seg
  else
    match t.state with
    | Listen -> handle_listen t seg
    | Syn_rcvd -> handle_syn_rcvd t seg
    | Established -> handle_established t seg
    | Close_wait -> handle_close_wait t seg
    | Last_ack -> handle_last_ack t seg
    | Closed -> refuse t seg

let handle_bytes t data =
  match decode data with
  | Error _ -> []
  | Ok seg -> List.map encode (handle t seg)
