type flags = {
  syn : bool;
  ack : bool;
  fin : bool;
  rst : bool;
  psh : bool;
  urg : bool;
}

let no_flags =
  { syn = false; ack = false; fin = false; rst = false; psh = false; urg = false }

let flags_to_string f =
  let b = Buffer.create 6 in
  if f.syn then Buffer.add_char b 'S';
  if f.ack then Buffer.add_char b 'A';
  if f.fin then Buffer.add_char b 'F';
  if f.rst then Buffer.add_char b 'R';
  if f.psh then Buffer.add_char b 'P';
  if f.urg then Buffer.add_char b 'U';
  Buffer.contents b

let flags_of_string s =
  String.fold_left
    (fun f c ->
      match c with
      | 'S' -> { f with syn = true }
      | 'A' -> { f with ack = true }
      | 'F' -> { f with fin = true }
      | 'R' -> { f with rst = true }
      | 'P' -> { f with psh = true }
      | 'U' -> { f with urg = true }
      | _ -> invalid_arg "Tcp_wire.flags_of_string: unknown flag character")
    no_flags s

type option_ =
  | Mss of int
  | Window_scale of int
  | Sack_permitted
  | Timestamps of { value : int; echo : int }

type segment = {
  src_port : int;
  dst_port : int;
  seq : int;
  ack : int;
  flags : flags;
  window : int;
  urgent : int;
  options : option_ list;
  payload : string;
}

let mask32 = 0xFFFFFFFF
let seq_add a b = (a + b) land mask32

let make ?(window = 65535) ?(urgent = 0) ?(options = []) ?(payload = "")
    ~src_port ~dst_port ~seq ~ack flags =
  {
    src_port;
    dst_port;
    seq = seq land mask32;
    ack = ack land mask32;
    flags;
    window;
    urgent;
    options;
    payload;
  }

let find_mss seg =
  List.fold_left
    (fun acc opt -> match opt with Mss v -> Some v | _ -> acc)
    None seg.options

let pp fmt s =
  Format.fprintf fmt "TCP{%d->%d %s seq=%d ack=%d len=%d}" s.src_port s.dst_port
    (flags_to_string s.flags) s.seq s.ack (String.length s.payload)

let to_json s =
  String.concat "\n"
    [
      "{ \"isNull\": false,";
      Printf.sprintf "  \"sourcePort\": %d," s.src_port;
      Printf.sprintf "  \"destinationPort\": %d," s.dst_port;
      Printf.sprintf "  \"seqNumber\": %d," s.seq;
      Printf.sprintf "  \"ackNumber\": %d," s.ack;
      "  \"dataOffset\": null,";
      "  \"reserved\": 0,";
      Printf.sprintf "  \"flags\": %S," (flags_to_string s.flags);
      Printf.sprintf "  \"window\": %d," s.window;
      "  \"checksum\": null,";
      Printf.sprintf "  \"urgentPointer\": %d }" s.urgent;
    ]

let header_len = 20

module Inet = Prognosis_sul.Inet

let set_u16 b off v = Bytes.set_uint16_be b off (v land 0xFFFF)

let set_u32 b off v =
  set_u16 b off (v lsr 16);
  set_u16 b (off + 2) v

let get_u16 = String.get_uint16_be
let get_u32 s off = (get_u16 s off lsl 16) lor get_u16 s (off + 2)

let flag_bits f =
  (if f.fin then 0x01 else 0)
  lor (if f.syn then 0x02 else 0)
  lor (if f.rst then 0x04 else 0)
  lor (if f.psh then 0x08 else 0)
  lor (if f.ack then 0x10 else 0)
  lor if f.urg then 0x20 else 0

let flags_of_bits bits =
  {
    fin = bits land 0x01 <> 0;
    syn = bits land 0x02 <> 0;
    rst = bits land 0x04 <> 0;
    psh = bits land 0x08 <> 0;
    ack = bits land 0x10 <> 0;
    urg = bits land 0x20 <> 0;
  }

(* Options are written in place behind the fixed header and padded
   with NOPs to a 32-bit boundary. *)
let option_length = function
  | Mss _ -> 4
  | Window_scale _ -> 3
  | Sack_permitted -> 2
  | Timestamps _ -> 10

let options_length options =
  let n = List.fold_left (fun n o -> n + option_length o) 0 options in
  (n + 3) land lnot 3

let write_option b off opt =
  Bytes.set_uint8 b off
    (match opt with
    | Mss _ -> 2
    | Window_scale _ -> 3
    | Sack_permitted -> 4
    | Timestamps _ -> 8);
  Bytes.set_uint8 b (off + 1) (option_length opt);
  (match opt with
  | Mss v -> set_u16 b (off + 2) v
  | Window_scale v -> Bytes.set_uint8 b (off + 2) (v land 0xFF)
  | Sack_permitted -> ()
  | Timestamps { value; echo } ->
      set_u32 b (off + 2) value;
      set_u32 b (off + 6) echo);
  off + option_length opt

(* Parses the options in [data[off, stop)]. *)
let decode_options data off stop =
  let rec loop off acc =
    if off >= stop then Ok (List.rev acc)
    else
      match Char.code data.[off] with
      | 0 -> Ok (List.rev acc) (* end of options *)
      | 1 -> loop (off + 1) acc (* NOP *)
      | kind ->
          if off + 1 >= stop then Error "truncated option"
          else begin
            let olen = Char.code data.[off + 1] in
            if olen < 2 || off + olen > stop then Error "bad option length"
            else begin
              let next = off + olen in
              match (kind, olen) with
              | 2, 4 -> loop next (Mss (get_u16 data (off + 2)) :: acc)
              | 3, 3 ->
                  loop next (Window_scale (Char.code data.[off + 2]) :: acc)
              | 4, 2 -> loop next (Sack_permitted :: acc)
              | 8, 10 ->
                  loop next
                    (Timestamps
                       {
                         value = get_u32 data (off + 2);
                         echo = get_u32 data (off + 6);
                       }
                    :: acc)
              | _ -> loop next acc (* unknown option: skipped *)
            end
          end
  in
  loop off []

(* The segment is built in one buffer and checksummed in place: the
   checksum field is still zero when the sum runs. *)
let encode s =
  let options = options_length s.options in
  let offset_words = 5 + (options / 4) in
  if offset_words > 15 then invalid_arg "Tcp_wire.encode: options too long";
  let data = header_len + options in
  let total = data + String.length s.payload in
  let b = Bytes.create total in
  Bytes.fill b header_len options '\001' (* NOP padding behind the options *);
  set_u16 b 0 s.src_port;
  set_u16 b 2 s.dst_port;
  set_u32 b 4 s.seq;
  set_u32 b 8 s.ack;
  Bytes.set_uint8 b 12 (offset_words lsl 4);
  Bytes.set_uint8 b 13 (flag_bits s.flags);
  set_u16 b 14 s.window;
  set_u16 b 16 0;
  set_u16 b 18 s.urgent;
  ignore (List.fold_left (write_option b) header_len s.options);
  Bytes.blit_string s.payload 0 b data (String.length s.payload);
  let view = Bytes.unsafe_to_string b in
  set_u16 b 16 (Inet.finish (Inet.sum 0 view 0 total));
  view

let decode data =
  let len = String.length data in
  if len < header_len then Error "segment too short"
  else begin
    let offset = Char.code data.[12] lsr 4 in
    if offset < 5 then Error "bad data offset"
    else if len < offset * 4 then Error "truncated header"
    else begin
      (* subtracting the stored checksum word from the raw sum is the
         sum with the field zeroed (it lies on a 16-bit word boundary) *)
      let received_sum = get_u16 data 16 in
      if Inet.finish (Inet.sum 0 data 0 len - received_sum) <> received_sum then
        Error "bad checksum"
      else begin
        match decode_options data header_len (offset * 4) with
        | Error e -> Error e
        | Ok options ->
            Ok
              {
                src_port = get_u16 data 0;
                dst_port = get_u16 data 2;
                seq = get_u32 data 4;
                ack = get_u32 data 8;
                flags = flags_of_bits (Char.code data.[13]);
                window = get_u16 data 14;
                urgent = get_u16 data 18;
                options;
                payload = String.sub data (offset * 4) (len - (offset * 4));
              }
      end
    end
  end
