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

(* Folds eight bytes per multiply where possible (the trailing mix
   supplies the diffusion FNV normally gets from its per-byte step).
   [Int64.to_int] keeps 63 bits of a lane, so a lane whose top bit is
   set takes one more step: every bit of keys, labels, headers and
   plaintext reaches the hash. *)
let fold_prefix h s len =
  let h = ref h in
  let i = ref 0 in
  while !i + 8 <= len do
    h := (!h lxor Int64.to_int (String.get_int64_le s !i)) * fnv_prime;
    if Char.code (String.unsafe_get s (!i + 7)) >= 0x80 then
      h := (!h lxor 1) * fnv_prime;
    i := !i + 8
  done;
  while !i < len do
    h := (!h lxor Char.code (String.unsafe_get s !i)) * fnv_prime;
    incr i
  done;
  !h

let fold_string h s = fold_prefix h s (String.length s)

let fold_int h v =
  (((h lxor (v land 0xFFFFFFFF)) * fnv_prime) lxor ((v lsr 32) land 0xFFFFFFFF))
  * fnv_prime

let fold_byte h b = (h lxor b) * fnv_prime
let hash s = mix (fold_string fnv_basis s)

let bytes_of_hash v =
  String.init 8 (fun i -> Char.unsafe_chr ((v lsr (8 * (7 - i))) land 0xFF))

(* hash(secret ^ "/" ^ label) without building the concatenation *)
let derive secret label =
  let h = fold_byte (fold_string fnv_basis secret) (Char.code '/') in
  bytes_of_hash (mix (fold_string h label))

let tag_length = 8

(* Keystream-XOR of [src[0, len)] into [dst]: a splitmix-style stream
   seeded from [mix stream], one mixing round per 8 bytes, consumed low
   byte first — so whole lanes are one masked little-endian int64 XOR
   (bit 63 of a keystream word is zero: the state is a 63-bit int).
   Encryption and decryption are the same operation. *)
let xor_stream stream src dst len =
  let state = ref (mix stream) in
  let i = ref 0 in
  while !i + 8 <= len do
    state := mix (!state + golden);
    let ks = Int64.logand (Int64.of_int !state) Int64.max_int in
    Bytes.set_int64_le dst !i (Int64.logxor (String.get_int64_le src !i) ks);
    i := !i + 8
  done;
  if !i < len then begin
    state := mix (!state + golden);
    let block = ref !state in
    while !i < len do
      Bytes.unsafe_set dst !i
        (Char.unsafe_chr
           (Char.code (String.unsafe_get src !i) lxor (!block land 0xFF)));
      block := !block lsr 8;
      incr i
    done
  end

(* The tag: the hash of [auth] and the plaintext, as an int64 lane
   whose top bit is zero (it is a 63-bit int), written big-endian. *)
let tag auth data len =
  Int64.logand (Int64.of_int (mix (fold_prefix auth data len)))
    Int64.max_int

let seal ~stream ~auth plaintext =
  let n = String.length plaintext in
  let out = Bytes.create (n + tag_length) in
  xor_stream stream plaintext out n;
  Bytes.set_int64_be out n (tag auth plaintext n);
  Bytes.unsafe_to_string out

let open_ ~stream ~auth sealed =
  let n = String.length sealed - tag_length in
  if n < 0 then None
  else
    let out = Bytes.create n in
    xor_stream stream sealed out n;
    let plaintext = Bytes.unsafe_to_string out in
    (* one whole-lane comparison: no exit at the first differing byte *)
    if String.get_int64_be sealed n = tag auth plaintext n then Some plaintext
    else None
