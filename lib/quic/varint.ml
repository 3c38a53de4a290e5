let max_value = (1 lsl 62) - 1

let encoded_length v =
  if v < 0 || v > max_value then invalid_arg "Varint: value out of range"
  else if v < 1 lsl 6 then 1
  else if v < 1 lsl 14 then 2
  else if v < 1 lsl 30 then 4
  else 8

let write b off v =
  match encoded_length v with
  | 1 ->
      Bytes.set_uint8 b off v;
      off + 1
  | 2 ->
      Bytes.set_uint16_be b off (0x4000 lor v);
      off + 2
  | 4 ->
      Bytes.set_uint16_be b off (0x8000 lor (v lsr 16));
      Bytes.set_uint16_be b (off + 2) (v land 0xFFFF);
      off + 4
  | _ ->
      Bytes.set_int64_be b off
        (Int64.logor (Int64.of_int v) 0xC000000000000000L);
      off + 8

let encode_to_string v =
  let b = Bytes.create (encoded_length v) in
  ignore (write b 0 v);
  Bytes.unsafe_to_string b

let read s pos =
  let off = !pos in
  if off >= String.length s then invalid_arg "Varint.decode: out of bounds";
  let first = Char.code s.[off] in
  let len = 1 lsl (first lsr 6) in
  if off + len > String.length s then invalid_arg "Varint.decode: truncated";
  let v = ref (first land 0x3F) in
  for i = 1 to len - 1 do
    v := (!v lsl 8) lor Char.code (String.unsafe_get s (off + i))
  done;
  pos := off + len;
  !v

let decode s off =
  let pos = ref off in
  let v = read s pos in
  (v, !pos)
