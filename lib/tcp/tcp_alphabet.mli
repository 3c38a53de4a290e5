(** The abstract TCP alphabet used in the paper's §6.1 case study: the
    seven flag combinations, with sequence and acknowledgement numbers
    left unspecified and the payload length fixed per symbol
    (ACK+PSH carries one byte, everything else none). *)

type symbol =
  | Syn  (** SYN(?,?,0) *)
  | Syn_ack  (** SYN+ACK(?,?,0) *)
  | Ack  (** ACK(?,?,0) *)
  | Ack_psh  (** ACK+PSH(?,?,1) *)
  | Fin_ack  (** FIN+ACK(?,?,0) *)
  | Rst  (** RST(?,?,0) *)
  | Ack_rst  (** ACK+RST(?,?,0) *)

val all : symbol array
val to_string : symbol -> string
val pp : Format.formatter -> symbol -> unit

val flags : symbol -> Tcp_wire.flags

type output = symbol list
(** Abstract response: the flag views of the reply segments, [[]] when
    the implementation stays silent (NIL). *)

val output_to_string : output -> string
val pp_output : Format.formatter -> output -> unit

val abstract : Tcp_wire.segment -> symbol option
(** α on a single segment: [None] when the flag combination is outside
    the abstract alphabet. *)
