let set_u16 = Bytes.set_uint16_be
let get_u16 = String.get_uint16_be

let set_u32 b off v =
  set_u16 b off ((v lsr 16) land 0xFFFF);
  set_u16 b (off + 2) (v land 0xFFFF)

let get_u32 s off = (get_u16 s off lsl 16) lor get_u16 s (off + 2)

(* RFC 1071 ones-complement checksum, split into a raw 16-bit word sum
   and a finalizer. The sum over a concatenation of even-length pieces
   equals the sum of per-piece sums, so callers fold pseudo-header
   fields in as integers instead of materializing the concatenation.

   The sum reads 8-byte big-endian lanes, four words each, after one
   bounds check for the whole slice. Masking the lane into two pairs of
   16-bit fields 32 bits apart adds two words into each 32-bit half at
   once; the halves are drained into the sum every 8192 lanes, well
   before either can overflow. The one bit a native int cannot hold,
   the lane's bit 63 (the top bit of its first word), is counted apart
   and weighs 0x8000. The result is the exact word sum, not merely a
   congruent one: callers subtract a stored checksum from it. *)
external get64u : string -> int -> int64 = "%caml_string_get64u"
external swap64 : int64 -> int64 = "%bswap_int64"

let[@inline] lane_be s i =
  if Sys.big_endian then get64u s i else swap64 (get64u s i)

let pairs = 0x0000FFFF0000FFFF

let sum acc s off len =
  if off < 0 || len < 0 || off > String.length s - len then
    invalid_arg "Inet.sum";
  let sum = ref acc and halves = ref 0 and tops = ref 0 and lanes = ref 0 in
  let i = ref off in
  let stop = off + len in
  while !i + 8 <= stop do
    let lane = lane_be s !i in
    let x = Int64.to_int lane in
    halves := !halves + (x land pairs) + ((x lsr 16) land pairs);
    tops := !tops + Int64.to_int (Int64.shift_right_logical lane 63);
    i := !i + 8;
    incr lanes;
    if !lanes = 8192 then begin
      sum := !sum + (!halves lsr 32) + (!halves land 0xFFFFFFFF);
      halves := 0;
      lanes := 0
    end
  done;
  sum := !sum + (!halves lsr 32) + (!halves land 0xFFFFFFFF) + (!tops lsl 15);
  while !i + 1 < stop do
    sum :=
      !sum
      + (Char.code (String.unsafe_get s !i) lsl 8)
      + Char.code (String.unsafe_get s (!i + 1));
    i := !i + 2
  done;
  if !i < stop then sum := !sum + (Char.code (String.unsafe_get s !i) lsl 8);
  !sum

(* the buffer is only read for the duration of the call *)
let sum_bytes acc b off len = sum acc (Bytes.unsafe_to_string b) off len

let finish sum =
  let sum = ref sum in
  while !sum lsr 16 <> 0 do
    sum := (!sum land 0xFFFF) + (!sum lsr 16)
  done;
  lnot !sum land 0xFFFF

(* [hdr] zeroed header bytes followed by [payload]: every encoder
   frames into one of these and writes its headers in place. *)
let framed hdr payload =
  let n = String.length payload in
  let b = Bytes.create (hdr + n) in
  Bytes.fill b 0 hdr '\000';
  Bytes.blit_string payload 0 b hdr n;
  b

module Ipv4 = struct
  type t = { src : int; dst : int; ttl : int; protocol : int; payload : string }

  let tcp_protocol = 6
  let udp_protocol = 17
  let header_len = 20

  (* The header of the datagram filling [b], checksum included. *)
  let write_header b ~src ~dst ~ttl ~protocol =
    let total = Bytes.length b in
    if total > 0xFFFF then invalid_arg "Ipv4.encode: payload too large";
    Bytes.set b 0 (Char.chr 0x45) (* version 4, IHL 5 *);
    set_u16 b 2 total;
    Bytes.set b 8 (Char.chr (ttl land 0xFF));
    Bytes.set b 9 (Char.chr (protocol land 0xFF));
    set_u32 b 12 src;
    set_u32 b 16 dst;
    (* checksum field is still zero here, so summing the header in
       place is the sum-with-zeroed-field the RFC asks for *)
    set_u16 b 10 (finish (sum_bytes 0 b 0 header_len))

  let encode t =
    let b = framed header_len t.payload in
    write_header b ~src:t.src ~dst:t.dst ~ttl:t.ttl ~protocol:t.protocol;
    Bytes.unsafe_to_string b

  (* Validates the header; [Ok total] is the datagram's total length. *)
  let check data =
    if String.length data < header_len then Error "ipv4: too short"
    else if Char.code data.[0] <> 0x45 then Error "ipv4: not v4/IHL5"
    else
      let total = get_u16 data 2 in
      (* subtracting the stored checksum word from the raw sum is the
         same as summing with the field zeroed (both lie on a 16-bit
         word boundary) *)
      let received = get_u16 data 10 in
      if total > String.length data then Error "ipv4: truncated"
      else if finish (sum 0 data 0 header_len - received) <> received
      then Error "ipv4: bad header checksum"
      else if total < header_len then Error "ipv4: bad total length"
      else Ok total

  let decode data =
    Result.map
      (fun total ->
        {
          src = get_u32 data 12;
          dst = get_u32 data 16;
          ttl = Char.code data.[8];
          protocol = Char.code data.[9];
          payload = String.sub data header_len (total - header_len);
        })
      (check data)
end

module Udp = struct
  type t = { src_port : int; dst_port : int; payload : string }

  let header_len = 8

  (* the 12-byte (even-length) pseudo header folded directly into the
     running sum: src ip, dst ip, protocol, UDP length *)
  let pseudo_sum ~src_ip ~dst_ip ~length =
    ((src_ip lsr 16) land 0xFFFF)
    + (src_ip land 0xFFFF)
    + ((dst_ip lsr 16) land 0xFFFF)
    + (dst_ip land 0xFFFF)
    + Ipv4.udp_protocol + length

  (* The header of the datagram filling [b] from [off], checksum
     included. *)
  let write_header b off ~src_ip ~dst_ip ~src_port ~dst_port =
    let total = Bytes.length b - off in
    set_u16 b off src_port;
    set_u16 b (off + 2) dst_port;
    set_u16 b (off + 4) total;
    let sum =
      finish (sum_bytes (pseudo_sum ~src_ip ~dst_ip ~length:total) b off total)
    in
    set_u16 b (off + 6) (if sum = 0 then 0xFFFF else sum)

  let encode ~src_ip ~dst_ip t =
    let b = framed header_len t.payload in
    write_header b 0 ~src_ip ~dst_ip ~src_port:t.src_port ~dst_port:t.dst_port;
    Bytes.unsafe_to_string b

  (* Validates the datagram in [data[off, off + len)]; [Ok total] is its
     UDP length. *)
  let check ~src_ip ~dst_ip data off len =
    if len < header_len then Error "udp: too short"
    else
      let total = get_u16 data (off + 4) in
      if total > len || total < header_len then Error "udp: bad length"
      else
        let received = get_u16 data (off + 6) in
        let pseudo = pseudo_sum ~src_ip ~dst_ip ~length:total in
        let sum = finish (sum pseudo data off total - received) in
        let sum = if sum = 0 then 0xFFFF else sum in
        if received <> 0 && sum <> received then Error "udp: bad checksum"
        else Ok total

  let decode ~src_ip ~dst_ip data =
    Result.map
      (fun total ->
        {
          src_port = get_u16 data 0;
          dst_port = get_u16 data 2;
          payload = String.sub data header_len (total - header_len);
        })
      (check ~src_ip ~dst_ip data 0 (String.length data))
end

let wrap_tcp ~src ~dst payload =
  Ipv4.encode
    { Ipv4.src; dst; ttl = 64; protocol = Ipv4.tcp_protocol; payload }

let unwrap_tcp data =
  match Ipv4.decode data with
  | Error e -> Error e
  | Ok ip ->
      if ip.Ipv4.protocol <> Ipv4.tcp_protocol then Error "ipv4: not TCP"
      else Ok ip.Ipv4.payload

(* Both headers and the payload in one buffer, and on the way back both
   headers checked in place: only the payload is copied. *)
let udp_at = Ipv4.header_len
let udp_payload_at = Ipv4.header_len + Udp.header_len

let wrap_udp ~src ~dst ~src_port ~dst_port payload =
  let b = framed udp_payload_at payload in
  Udp.write_header b udp_at ~src_ip:src ~dst_ip:dst ~src_port ~dst_port;
  Ipv4.write_header b ~src ~dst ~ttl:64 ~protocol:Ipv4.udp_protocol;
  Bytes.unsafe_to_string b

let unwrap_udp data =
  match Ipv4.check data with
  | Error e -> Error e
  | Ok _ when Char.code data.[9] <> Ipv4.udp_protocol -> Error "ipv4: not UDP"
  | Ok total -> (
      match
        Udp.check ~src_ip:(get_u32 data 12) ~dst_ip:(get_u32 data 16) data
          udp_at (total - udp_at)
      with
      | Error e -> Error e
      | Ok length ->
          Ok
            ( get_u16 data udp_at,
              String.sub data udp_payload_at (length - Udp.header_len) ))
