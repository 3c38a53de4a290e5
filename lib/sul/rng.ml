(* The splitmix64 state lives in an 8-byte buffer and is read and
   written in place: a draw computes on unboxed int64 locals, where a
   mutable [int64] record field would box a fresh state every draw. *)
type t = Bytes.t

let create seed =
  let t = Bytes.create 8 in
  Bytes.set_int64_le t 0 seed;
  t

let copy = Bytes.copy

(* splitmix64: Steele, Lea, Flood (2014). *)
let[@inline] draw t =
  let open Int64 in
  let s = add (Bytes.get_int64_le t 0) 0x9E3779B97F4A7C15L in
  Bytes.set_int64_le t 0 s;
  let z = mul (logxor s (shift_right_logical s 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let next64 t = draw t
let split t = create (draw t)
let split_n t n = Array.init n (fun _ -> split t)

let int t n =
  if n <= 0 then invalid_arg "Rng.int: bound must be positive";
  Int64.to_int (Int64.shift_right_logical (draw t) 2) mod n

let float t =
  Int64.to_float (Int64.shift_right_logical (draw t) 11)
  /. 9007199254740992.0 (* 2^53 *)

let bool t p = float t < p

(* one draw per byte: its low eight bits *)
let[@inline] byte t = Int64.to_int (draw t) land 0xFF

let bytes t n =
  let b = Bytes.create n in
  for i = 0 to n - 1 do
    Bytes.unsafe_set b i (Char.unsafe_chr (byte t))
  done;
  Bytes.unsafe_to_string b

let digits = "0123456789abcdef"

let hex t n =
  let b = Bytes.create (2 * n) in
  for i = 0 to n - 1 do
    let c = byte t in
    Bytes.unsafe_set b (2 * i) digits.[c lsr 4];
    Bytes.unsafe_set b ((2 * i) + 1) digits.[c land 0xF]
  done;
  Bytes.unsafe_to_string b
