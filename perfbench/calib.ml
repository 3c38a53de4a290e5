(* Machine-speed normalisation.

   On the shared 2-core VM this benchmark was written for, the whole
   machine slows down by up to 1.7x for 5-20 s at a time whenever a
   neighbour saturates memory bandwidth; raw wall times of identical
   ops then differ by more than any useful regression bound. The
   slowdown tracks the time of a memory-bandwidth-bound reference, so
   every timed interval is followed by one reference chunk and scaled:

     scaled = raw * (nominal_ns / mean(reference before, reference after)) ** 0.9

   Under the heaviest contention the reference slows a little more than
   the ops do; the exponent 0.9 fitted that best on recorded series of
   learn-wire ops (spread of 25 s medians: 2% with it, 5% without, 24%
   unscaled).

   The reference is owned by the benchmark and allocates nothing, so no
   change to the library, its heap or its GC can change its time. *)

let nominal_ns = 1.25e6
let exponent = 0.9

(* 4 MiB streamed with 8-byte writes, then read back at one byte per
   64-byte line: about 1.25 ms on that VM when it is quiet. *)
let chunk buffer =
  let acc = ref 0 in
  for i = 0 to (Bytes.length buffer / 8) - 1 do
    Bytes.set_int64_le buffer (8 * i) (Int64.of_int (i + !acc))
  done;
  for i = 0 to (Bytes.length buffer / 64) - 1 do
    acc := !acc + Bytes.get_uint8 buffer (64 * i)
  done;
  !acc

let buffer = Bytes.create (4 lsl 20)

let measure () =
  let t0 = Ledger.now () in
  ignore (Sys.opaque_identity (chunk buffer));
  Ledger.now () - t0

let last = ref None
let references = ref []

type timing = {
  raw_ns : int;
  factor : float;  (** (nominal / local reference time) ** exponent *)
  scaled_ns : float;
}

(* Runs [f], then one reference chunk. *)
let timed f =
  let t0 = Ledger.now () in
  let v = f () in
  let raw_ns = Ledger.now () - t0 in
  let r = measure () in
  let before = Option.value !last ~default:r in
  let factor = (nominal_ns /. (float_of_int (before + r) /. 2.0)) ** exponent in
  last := Some r;
  references := r :: !references;
  (v, { raw_ns; factor; scaled_ns = float_of_int raw_ns *. factor })
