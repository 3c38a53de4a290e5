(* FNV-1a over OCaml's native (63-bit) int, then a splitmix-style
   finalizer for diffusion. Native int arithmetic keeps every
   per-record step — key derivation, keystream, authentication —
   unboxed. Constants are the usual FNV/splitmix ones truncated to 62
   bits so they remain valid int literals. *)
let fnv_basis = 0x3BF29CE484222325
let fnv_prime = 0x100000001B3
let golden = 0x1E3779B97F4A7C15

let mix z =
  let z = (z lxor (z lsr 30)) * 0x3F58476D1CE4E5B9 in
  let z = (z lxor (z lsr 27)) * 0x14D049BB133111EB in
  z lxor (z lsr 31)

(* Little-endian lanes, read and written after the caller has checked
   the whole slice. *)
external get64u : string -> int -> int64 = "%caml_string_get64u"
external set64u : bytes -> int -> int64 -> unit = "%caml_bytes_set64u"
external swap64 : int64 -> int64 = "%bswap_int64"

let[@inline] get_lane s i =
  if Sys.big_endian then swap64 (get64u s i) else get64u s i

let[@inline] set_lane b i v =
  if Sys.big_endian then set64u b i (swap64 v) else set64u b i v

let check_slice name s off len =
  if off < 0 || len < 0 || off > String.length s - len then invalid_arg name

(* Folds eight bytes per multiply where possible (the trailing mix
   supplies the diffusion FNV normally gets from its per-byte step).
   [Int64.to_int] keeps 63 bits of a lane, so a lane whose top bit is
   set takes one more step: every bit of keys, labels, headers and
   plaintext reaches the hash. Lanes start at [off]. *)
let fold_sub h s off len =
  check_slice "Sim_crypto.fold_sub" s off len;
  let h = ref h in
  let i = ref off in
  let stop = off + len in
  while !i + 8 <= stop do
    h := (!h lxor Int64.to_int (get_lane s !i)) * fnv_prime;
    if Char.code (String.unsafe_get s (!i + 7)) >= 0x80 then
      h := (!h lxor 1) * fnv_prime;
    i := !i + 8
  done;
  while !i < stop do
    h := (!h lxor Char.code (String.unsafe_get s !i)) * fnv_prime;
    incr i
  done;
  !h

let fold_string h s = fold_sub h s 0 (String.length s)

(* [fold_sub] over the concatenation of [parts], without building it:
   bytes gather into a lane that may straddle parts, and a final
   partial lane is absorbed byte by byte, exactly as [fold_sub] would. *)
let fold_concat h parts =
  let rec go h lane fill = function
    | [] ->
        let h = ref h in
        for k = 0 to fill - 1 do
          h := (!h lxor ((lane lsr (8 * k)) land 0xFF)) * fnv_prime
        done;
        !h
    | s :: rest -> part h lane fill s 0 rest
  and part h lane fill s i rest =
    if i = String.length s then go h lane fill rest
    else
      let b = Char.code (String.unsafe_get s i) in
      if fill < 7 then
        part h (lane lor (b lsl (8 * fill))) (fill + 1) s (i + 1) rest
      else
        let h = (h lxor (lane lor ((b land 0x7F) lsl 56))) * fnv_prime in
        let h = if b >= 0x80 then (h lxor 1) * fnv_prime else h in
        part h 0 0 s (i + 1) rest
  in
  go h 0 0 parts

(* [fold_concat h [a; b]] without the list: the same lanes, gathered
   across the boundary byte by byte. *)
let[@inline] byte2 a b la i =
  if i < la then Char.code (String.unsafe_get a i)
  else Char.code (String.unsafe_get b (i - la))

let fold_concat2 h a b =
  let la = String.length a in
  let n = la + String.length b in
  let h = ref h and i = ref 0 in
  while !i + 8 <= n do
    let lane = ref 0 in
    for k = 0 to 6 do
      lane := !lane lor (byte2 a b la (!i + k) lsl (8 * k))
    done;
    let top = byte2 a b la (!i + 7) in
    h := (!h lxor (!lane lor ((top land 0x7F) lsl 56))) * fnv_prime;
    if top >= 0x80 then h := (!h lxor 1) * fnv_prime;
    i := !i + 8
  done;
  while !i < n do
    h := (!h lxor byte2 a b la !i) * fnv_prime;
    incr i
  done;
  !h

let fold_int h v =
  (((h lxor (v land 0xFFFFFFFF)) * fnv_prime) lxor ((v lsr 32) land 0xFFFFFFFF))
  * fnv_prime

let fold_byte h b = (h lxor b) * fnv_prime
let hash s = mix (fold_string fnv_basis s)

(* hash(secret ^ "/" ^ label), from the secret's absorbed state: the
   big-endian bytes of the 63-bit hash, written at [off] *)
let derive_into secret label b off =
  let v = mix (fold_string (fold_byte secret (Char.code '/')) label) in
  Bytes.set_int64_be b off (Int64.logand (Int64.of_int v) Int64.max_int)

let derive_from secret label =
  let b = Bytes.create 8 in
  derive_into secret label b 0;
  Bytes.unsafe_to_string b

(* [fold_string fnv_basis (derive_from h label)] without the 8 bytes:
   they are the big-endian bytes of the 63-bit hash, so their one
   little-endian lane is its byte swap, and the lane's top bit is the
   hash's bit 7. *)
let derive_key h label =
  let v = mix (fold_string (fold_byte h (Char.code '/')) label) in
  let lane = swap64 (Int64.logand (Int64.of_int v) Int64.max_int) in
  let h = (fnv_basis lxor Int64.to_int lane) * fnv_prime in
  if v land 0x80 <> 0 then (h lxor 1) * fnv_prime else h

let tag_length = 8

(* Keystream-XOR of [src[soff, soff + len)] into [dst] from [doff]: a
   splitmix-style stream seeded from [mix stream], one mixing round per
   8 bytes, consumed low byte first — so whole lanes are one masked
   little-endian int64 XOR (bit 63 of a keystream word is zero: the
   state is a 63-bit int). Encryption and decryption are the same
   operation, and [src] may be [dst] itself: each lane is read before
   it is written. The caller has checked both slices. *)
let xor_stream stream src soff dst doff len =
  let state = ref (mix stream) in
  let i = ref 0 in
  while !i + 8 <= len do
    state := mix (!state + golden);
    let ks = Int64.logand (Int64.of_int !state) Int64.max_int in
    set_lane dst (doff + !i) (Int64.logxor (get_lane src (soff + !i)) ks);
    i := !i + 8
  done;
  if !i < len then begin
    state := mix (!state + golden);
    let block = ref !state in
    while !i < len do
      Bytes.unsafe_set dst (doff + !i)
        (Char.unsafe_chr
           (Char.code (String.unsafe_get src (soff + !i))
           lxor (!block land 0xFF)));
      block := !block lsr 8;
      incr i
    done
  end

(* The tag: the hash of [auth] and the plaintext, as an int64 lane
   whose top bit is zero (it is a 63-bit int), written big-endian. *)
let tag auth data off len =
  Int64.logand (Int64.of_int (mix (fold_sub auth data off len))) Int64.max_int

let seal ~stream ~auth buf off len =
  (* the buffer is read through this view, each lane before it changes *)
  let view = Bytes.unsafe_to_string buf in
  if len < 0 then invalid_arg "Sim_crypto.seal";
  check_slice "Sim_crypto.seal" view off (len + tag_length);
  let t = tag auth view off len in
  xor_stream stream view off buf off len;
  Bytes.set_int64_be buf (off + len) t

let open_ ~stream ~auth data off len =
  check_slice "Sim_crypto.open_" data off (max len 0);
  let n = len - tag_length in
  if n < 0 then None
  else
    let out = Bytes.create n in
    xor_stream stream data off out 0 n;
    let plaintext = Bytes.unsafe_to_string out in
    (* one whole-lane comparison: no exit at the first differing byte *)
    if String.get_int64_be data (off + n) = tag auth plaintext 0 n then
      Some plaintext
    else None
