type t = { mutable state : int64 }

let create seed = { state = seed }
let copy t = { state = t.state }

(* splitmix64: Steele, Lea, Flood (2014). *)
let next64 t =
  let open Int64 in
  t.state <- add t.state 0x9E3779B97F4A7C15L;
  let z = t.state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let split t = create (next64 t)
let split_n t n = Array.init n (fun _ -> split t)

let int t n =
  if n <= 0 then invalid_arg "Rng.int: bound must be positive";
  let v = Int64.to_int (Int64.shift_right_logical (next64 t) 2) in
  v mod n

let int32 t = Int64.to_int32 (next64 t)

let float t =
  let v = Int64.to_float (Int64.shift_right_logical (next64 t) 11) in
  v /. 9007199254740992.0 (* 2^53 *)

let bool t p = float t < p

let bytes t n =
  String.init n (fun _ -> Char.chr (Int64.to_int (Int64.logand (next64 t) 0xFFL)))

let hex t n =
  let raw = bytes t n in
  String.init (2 * n) (fun i ->
      let c = Char.code raw.[i / 2] in
      "0123456789abcdef".[if i land 1 = 0 then c lsr 4 else c land 0xF])
