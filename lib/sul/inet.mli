(** IPv4 and UDP codecs: the outermost layers of the native alphabet
    (paper Example 3.1 — "binary representations of packets that will
    be sent over the wire").

    The protocol adapters encapsulate every exchange the way a real
    stack would: TCP segments ride directly in IPv4 (protocol 6), QUIC
    and DTLS datagrams ride in UDP (protocol 17) inside IPv4. Headers
    carry real ones-complement checksums (including the UDP
    pseudo-header), so corruption injected by the simulated network is
    caught at the same layer it would be in practice. *)

val sum : int -> string -> int -> int -> int
(** [sum acc s off len] is [acc] plus the RFC 1071 sum of the
    big-endian 16-bit words of [s[off, off + len)], an odd last byte
    padded with zero: the exact sum, before carries are folded. Sums of
    even-length pieces add up to the sum of their concatenation.
    @raise Invalid_argument when the slice is out of bounds. *)

val finish : int -> int
(** The ones-complement checksum of a raw {!sum}: carries folded in,
    then complemented. *)

module Ipv4 : sig
  type t = {
    src : int;  (** 32-bit address *)
    dst : int;
    ttl : int;
    protocol : int;  (** 6 = TCP, 17 = UDP *)
    payload : string;
  }

  val tcp_protocol : int
  val udp_protocol : int

  val encode : t -> string
  (** 20-byte header (no options) + payload; header checksum filled. *)

  val decode : string -> (t, string) result
end

module Udp : sig
  type t = { src_port : int; dst_port : int; payload : string }

  val encode : src_ip:int -> dst_ip:int -> t -> string
  (** 8-byte header + payload; checksum over the RFC 768 pseudo-header. *)

  val decode : src_ip:int -> dst_ip:int -> string -> (t, string) result
end

val wrap_tcp : src:int -> dst:int -> string -> string
(** A TCP segment inside IPv4. *)

val unwrap_tcp : string -> (string, string) result

val wrap_udp : src:int -> dst:int -> src_port:int -> dst_port:int -> string -> string
(** A datagram inside UDP inside IPv4. *)

val unwrap_udp : string -> (int * string, string) result
(** Returns (source port, payload): the source port feeds QUIC's
    address validation. *)
