(** The TCP case study (paper §6.1): the TCP server's descriptor, and
    the sequence/acknowledgement fields register synthesis ranges over
    to recover the Oracle Table's register machine (Figure 3(c)). *)

module Alphabet = Prognosis_tcp.Tcp_alphabet

val protocol :
  ?server_config:Prognosis_tcp.Tcp_server.config ->
  unit ->
  (Alphabet.symbol, Alphabet.output) Protocol.t
(** Subject ["tcp"]; equivalence oracle: W-method with one extra state,
    then 500 seeded random words of length 1–12. *)

val fields :
  (Prognosis_tcp.Tcp_wire.segment, Prognosis_tcp.Tcp_wire.segment)
  Protocol.fields
(** Inputs [seq; ack; len]; outputs [seq; ack], where the server-chosen
    initial sequence number is left unconstrained. Pair with an adapter
    from {!Prognosis_tcp.Tcp_adapter.create}. *)
