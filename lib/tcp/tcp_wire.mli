(** TCP segments: the protocol's native and concrete alphabets
    (paper §3.1, Examples 3.1–3.2).

    The native alphabet is the binary wire format: a real 20-byte TCP
    header (RFC 793 layout, ones-complement checksum) followed by the
    payload. The concrete alphabet is the structured {!segment} record,
    mirroring the JSON representation shown in the paper. *)

type flags = {
  syn : bool;
  ack : bool;
  fin : bool;
  rst : bool;
  psh : bool;
  urg : bool;
}

val no_flags : flags
val flags_to_string : flags -> string
(** Canonical order, e.g. "SA" for SYN+ACK, "FA" for FIN+ACK. *)

val flags_of_string : string -> flags
(** Inverse of {!flags_to_string}; unknown characters raise
    [Invalid_argument]. *)

(** TCP header options (RFC 793 §3.1, RFC 7323). Options ride in the
    variable part of the header; the data offset grows accordingly and
    the checksum covers them. *)
type option_ =
  | Mss of int  (** maximum segment size (kind 2) *)
  | Window_scale of int  (** shift count (kind 3) *)
  | Sack_permitted  (** kind 4 *)
  | Timestamps of { value : int; echo : int }  (** kind 8 *)

type segment = {
  src_port : int;
  dst_port : int;
  seq : int;  (** sequence number, modulo 2^32 *)
  ack : int;  (** acknowledgement number, modulo 2^32 *)
  flags : flags;
  window : int;
  urgent : int;
  options : option_ list;
  payload : string;
}

val make :
  ?window:int ->
  ?urgent:int ->
  ?options:option_ list ->
  ?payload:string ->
  src_port:int ->
  dst_port:int ->
  seq:int ->
  ack:int ->
  flags ->
  segment

val find_mss : segment -> int option

val pp : Format.formatter -> segment -> unit

val seq_add : int -> int -> int
(** Sequence-number addition modulo 2^32. *)

val encode : segment -> string
(** Binary wire form: 20-byte header, options + payload, checksum
    ({!Prognosis_sul.Inet.sum}) computed in place. *)

val decode : string -> (segment, string) result
(** Verifies the checksum in place, then parses. *)

val to_json : segment -> string
(** The concrete-alphabet representation of the paper's Example 3.2: a
    JSON object with the fields [isNull], [sourcePort],
    [destinationPort], [seqNumber], [ackNumber], [dataOffset],
    [reserved], [flags], [window], [checksum], [urgentPointer].
    [dataOffset] and [checksum] are [null] before encoding fixes them,
    exactly as in the paper's listing. *)
