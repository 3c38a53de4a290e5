module Rng = Prognosis_sul.Rng
open Tcp_wire

type t = {
  rng : Rng.t;
  src_port : int;
  dst_port : int;
  mutable iss : int;
  mutable snd_nxt_ : int;
  mutable rcv_nxt_ : int;
  mutable established_ : bool;
  mutable fin_sent : bool;
}

let reset t =
  t.iss <- Rng.int t.rng 0x40000000;
  t.snd_nxt_ <- t.iss;
  t.rcv_nxt_ <- 0;
  t.established_ <- false;
  t.fin_sent <- false

let create ?(src_port = 40000) ?(dst_port = 443) rng =
  let t =
    {
      rng;
      src_port;
      dst_port;
      iss = 0;
      snd_nxt_ = 0;
      rcv_nxt_ = 0;
      established_ = false;
      fin_sent = false;
    }
  in
  reset t;
  t

let established t = t.established_
let snd_nxt t = t.snd_nxt_
let rcv_nxt t = t.rcv_nxt_

let build_payload t ~payload ~seq ~ack flags =
  segment ~src_port:t.src_port ~dst_port:t.dst_port ~options:[] ~payload ~seq
    ~ack flags

let build t ~seq ~ack flags = build_payload t ~payload:"" ~seq ~ack flags
let build_data t ~seq ~ack flags = build_payload t ~payload:"D" ~seq ~ack flags
let syn_options = [ Mss 1460; Sack_permitted ]

let concretize t symbol =
  let flags = Tcp_alphabet.flags symbol in
  match symbol with
  | Tcp_alphabet.Syn ->
      if t.established_ then
        (* Mid-connection SYN probe: does not consume sequence space. *)
        build t ~seq:t.snd_nxt_ ~ack:0 flags
      else begin
        (* (Re)transmission of our opening SYN, offering MSS and
           SACK support. *)
        t.snd_nxt_ <- seq_add t.iss 1;
        segment ~src_port:t.src_port ~dst_port:t.dst_port ~options:syn_options
          ~payload:"" ~seq:t.iss ~ack:0 flags
      end
  | Tcp_alphabet.Syn_ack ->
      if t.established_ then build t ~seq:t.snd_nxt_ ~ack:t.rcv_nxt_ flags
      else build t ~seq:t.iss ~ack:0 flags
  | Tcp_alphabet.Ack ->
      if t.established_ then build t ~seq:t.snd_nxt_ ~ack:t.rcv_nxt_ flags
      else build t ~seq:t.iss ~ack:0 flags
  | Tcp_alphabet.Ack_psh ->
      if t.established_ && not t.fin_sent then begin
        let seg = build_data t ~seq:t.snd_nxt_ ~ack:t.rcv_nxt_ flags in
        t.snd_nxt_ <- seq_add t.snd_nxt_ 1;
        seg
      end
      else if t.established_ then
        (* Data after our FIN: invalid, sent as-is without consuming. *)
        build_data t ~seq:t.snd_nxt_ ~ack:t.rcv_nxt_ flags
      else build_data t ~seq:t.iss ~ack:0 flags
  | Tcp_alphabet.Fin_ack ->
      if t.established_ && not t.fin_sent then begin
        let seg = build t ~seq:t.snd_nxt_ ~ack:t.rcv_nxt_ flags in
        t.snd_nxt_ <- seq_add t.snd_nxt_ 1;
        t.fin_sent <- true;
        seg
      end
      else if t.established_ then
        (* FIN retransmission uses the original sequence number. *)
        build t ~seq:(seq_add t.snd_nxt_ (-1)) ~ack:t.rcv_nxt_ flags
      else build t ~seq:t.iss ~ack:0 flags
  | Tcp_alphabet.Rst ->
      let seq = if t.established_ then t.snd_nxt_ else t.iss in
      t.established_ <- false;
      build t ~seq ~ack:0 flags
  | Tcp_alphabet.Ack_rst ->
      let seq = if t.established_ then t.snd_nxt_ else t.iss in
      let ack = if t.established_ then t.rcv_nxt_ else 0 in
      t.established_ <- false;
      build t ~seq ~ack flags

let absorb t (seg : segment) =
  if seg.flags.rst then t.established_ <- false
  else if seg.flags.syn && seg.flags.ack then begin
    t.established_ <- true;
    t.rcv_nxt_ <- seq_add seg.seq 1;
    if t.snd_nxt_ = t.iss then t.snd_nxt_ <- seq_add t.iss 1
  end
  else if seg.flags.fin then
    t.rcv_nxt_ <- seq_add seg.seq (String.length seg.payload + 1)
  else if String.length seg.payload > 0 then
    t.rcv_nxt_ <- seq_add seg.seq (String.length seg.payload)
