module Metrics = Prognosis_obs.Metrics
module Trace = Prognosis_obs.Trace
module Clock = Prognosis_obs.Clock
module Mealy = Prognosis_automata.Mealy

type stats = {
  mutable membership_queries : int;
  mutable membership_symbols : int;
  mutable equivalence_queries : int;
  mutable test_words : int;
}

let fresh_stats () =
  {
    membership_queries = 0;
    membership_symbols = 0;
    equivalence_queries = 0;
    test_words = 0;
  }

(* Dense int ids for one symbol type. A coder is an immutable snapshot
   behind an [Atomic.t]: interning installs an extended copy with one
   compare-and-set, so a lock-free {!Cache.Shared} reader always sees
   a consistent coder and concurrent writers never hand out one id
   twice. Symbols are few (an alphabet's worth): copies are rare. *)
module Coder = struct
  type 'a snap = { syms : 'a array; ids : ('a, int) Hashtbl.t }
  type 'a t = 'a snap Atomic.t

  let create () = Atomic.make { syms = [||]; ids = Hashtbl.create 1 }

  let rec scan a x i =
    if i = Array.length a then -1
    else if Array.unsafe_get a i == x then i
    else scan a x (i + 1)

  (* The id of [x] in [s], or -1: a short table is scanned with [==]
     before [x] is hashed. *)
  let probe s x =
    let i = if Array.length s.syms > 32 then -1 else scan s.syms x 0 in
    if i >= 0 then i
    else match Hashtbl.find_opt s.ids x with Some i -> i | None -> -1

  let find c x = probe (Atomic.get c) x

  let rec intern c x =
    let s = Atomic.get c in
    let i = probe s x in
    if i >= 0 then i
    else begin
      let id = Array.length s.syms in
      let ids = Hashtbl.copy s.ids in
      Hashtbl.add ids x id;
      let s' = { syms = Array.append s.syms [| x |]; ids } in
      if Atomic.compare_and_set c s s' then id else intern c x
    end

  let intern_word c word = Array.of_list (List.map (intern c) word)
  let symbols c = (Atomic.get c).syms
  let decode c ids = Mealy.decode (symbols c) ids
end

type ('i, 'o) coded = {
  inputs : 'i Coder.t;
  outputs : 'o Coder.t;
  run : int array -> int array;
  run_batch : (int array array -> int array array) option;
}

type ('i, 'o) membership = {
  ask : 'i list -> 'o list;
  ask_batch : ('i list list -> 'o list list) option;
  stats : stats;
  coded : ('i, 'o) coded;
}

let of_coded stats coded =
  let answer ids = Coder.decode coded.outputs ids in
  let ask word = answer (coded.run (Coder.intern_word coded.inputs word)) in
  let ask_batch =
    Option.map
      (fun run words ->
        Array.of_list (List.map (Coder.intern_word coded.inputs) words)
        |> run |> Array.to_list |> List.map answer)
      coded.run_batch
  in
  { ask; ask_batch; stats; coded }

let m_queries = Metrics.counter Metrics.default "oracle.membership_queries"
let m_symbols = Metrics.counter Metrics.default "oracle.membership_symbols"
let h_latency = Metrics.histogram Metrics.default "oracle.mq_latency_ns"

(* Every query through [of_fun] is one that reaches the underlying
   function (the SUL, or the nondeterminism check around it): cache
   layers sit *above* this oracle and short-circuit before [ask] runs,
   which is what keeps [membership_queries] an exact count of queries
   the SUL actually served. *)
let count_query stats len =
  stats.membership_queries <- stats.membership_queries + 1;
  stats.membership_symbols <- stats.membership_symbols + len;
  Metrics.inc m_queries;
  Metrics.inc ~by:len m_symbols

let run_query stats len f =
  count_query stats len;
  let t0 = Clock.now_ns () in
  let answer =
    if Trace.enabled () then
      Trace.with_span
        ~attrs:[ ("len", Prognosis_obs.Jsonx.Int len) ]
        "oracle.mq" f
    else f ()
  in
  Metrics.observe_ns h_latency (Int64.sub (Clock.now_ns ()) t0);
  answer

let of_fun ?stats f =
  let stats = match stats with Some s -> s | None -> fresh_stats () in
  let inputs = Coder.create () and outputs = Coder.create () in
  let run ids =
    run_query stats (Array.length ids) (fun () ->
        Coder.intern_word outputs (f (Coder.decode inputs ids)))
  in
  of_coded stats { inputs; outputs; run; run_batch = None }

let of_sul ?stats sul = of_fun ?stats (Prognosis_sul.Sul.query sul)

type ('i, 'o) equivalence =
  ('i, 'o) membership -> ('i, 'o) Prognosis_automata.Mealy.t -> 'i list option

(* --- a learn's alphabet over the coded face --- *)

type ('i, 'o) bound = {
  mq : ('i, 'o) membership;
  alphabet : 'i array;
  ids : int array; (* position -> input id; -1 until first asked *)
}

let bind mq alphabet =
  { mq; alphabet; ids = Array.make (Array.length alphabet) (-1) }

let alphabet b = b.alphabet

(* Alphabet symbols are interned on first use, so ids keep the
   first-seen order of the queries themselves. *)
let id b p =
  if b.ids.(p) < 0 then b.ids.(p) <- Coder.intern b.mq.coded.inputs b.alphabet.(p);
  b.ids.(p)

(* Once every position is interned as its own id (a learn's first
   queries meet the alphabet in order), a word is its own coded form. *)
let rec same_ids ids p =
  p = Array.length ids || (ids.(p) = p && same_ids ids (p + 1))

let ids_of b w = if same_ids b.ids 0 then w else Array.map (id b) w
let query b w = b.mq.coded.run (ids_of b w)

let suffix b u v =
  Array.sub (query b (Array.append u v)) (Array.length u) (Array.length v)

let query_batch b =
  Option.map (fun run ws -> run (Array.map (ids_of b) ws)) b.mq.coded.run_batch

(* A symbol's position, scanned for physically, then structurally. An
   unknown symbol is named when it is a string or an immediate. *)
let position b x =
  let rec find i =
    if i = Array.length b.alphabet then
      let r = Obj.repr x in
      invalid_arg
        (Printf.sprintf "Oracle.encode: symbol %s is not in the alphabet"
           (if Obj.is_int r then Printf.sprintf "#%d" (Obj.obj r)
            else if Obj.tag r = Obj.string_tag then Printf.sprintf "%S" (Obj.obj r)
            else "<value>"))
    else if b.alphabet.(i) = x then i
    else find (i + 1)
  in
  match Coder.scan b.alphabet x 0 with -1 -> find 0 | i -> i

let encode b word = Array.of_list (List.map (position b) word)
let output b o = (Coder.symbols b.mq.coded.outputs).(o)

let rec equal_from (a : int array) b i =
  i = Array.length a || (a.(i) = b.(i) && equal_from a b (i + 1))

let equal_ids (a : int array) b =
  Array.length a = Array.length b && equal_from a b 0

let replay b h =
  let p = Mealy.pack h and s0 = Mealy.initial h in
  let table = Array.map (Coder.intern b.mq.coded.outputs) (Mealy.Packed.outputs p) in
  fun w ->
    let outs = Mealy.Packed.run_ids p s0 w in
    Array.iteri (fun k o -> Array.unsafe_set outs k table.(o)) outs;
    outs
