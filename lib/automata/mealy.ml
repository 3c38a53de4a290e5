module Metrics = Prognosis_obs.Metrics

(* [packed] is the compiled form of a machine: transitions and outputs
   flattened into int arrays ([(s * alpha) + i] indexing), outputs
   interned into a dense table. Stepping is two array loads — no
   per-step allocation, no polymorphic comparison. The form is memoized
   on the machine record ([t.packed_]) so every hot path that replays
   words over the same machine (equivalence suites, product BFS, test
   generation) pays the O(size × alpha) compilation once. *)
type ('i, 'o) t = {
  size : int;
  initial : int;
  inputs : 'i array;
  delta : int array array;
  lambda : 'o array array;
  mutable packed_ : ('i, 'o) packed option;
}

and ('i, 'o) packed = {
  p_size : int;
  p_initial : int;
  p_alpha : int;
  p_next : int array; (* state transition: p_next.((s * p_alpha) + i) *)
  p_out : int array; (* output id per (state, input) pair *)
  p_outputs : 'o array; (* interned output table, id -> symbol *)
}

let m_packed_steps = Metrics.counter Metrics.default "packed.steps"
let m_packs = Metrics.counter Metrics.default "packed.machines"

let repeated_input inputs =
  let seen = Hashtbl.create (Array.length inputs) in
  let rec go i =
    if i = Array.length inputs then None
    else
      match Hashtbl.find_opt seen inputs.(i) with
      | Some j -> Some (i, j)
      | None ->
          Hashtbl.add seen inputs.(i) i;
          go (i + 1)
  in
  go 0

let make ~size ~initial ~inputs ~delta ~lambda =
  let n_inputs = Array.length inputs in
  if size <= 0 then invalid_arg "Mealy.make: size must be positive";
  if initial < 0 || initial >= size then invalid_arg "Mealy.make: bad initial state";
  if n_inputs = 0 then invalid_arg "Mealy.make: empty alphabet";
  (match repeated_input inputs with
  | Some (i, j) ->
      invalid_arg (Printf.sprintf "Mealy.make: input %d repeats input %d" i j)
  | None -> ());
  if Array.length delta <> size || Array.length lambda <> size then
    invalid_arg "Mealy.make: delta/lambda must have one row per state";
  Array.iter
    (fun row ->
      if Array.length row <> n_inputs then
        invalid_arg "Mealy.make: delta row width mismatch";
      Array.iter
        (fun s ->
          if s < 0 || s >= size then invalid_arg "Mealy.make: successor out of range")
        row)
    delta;
  Array.iter
    (fun row ->
      if Array.length row <> n_inputs then
        invalid_arg "Mealy.make: lambda row width mismatch")
    lambda;
  { size; initial; inputs; delta; lambda; packed_ = None }

let of_fun ~size ~initial ~inputs ~step =
  let n = Array.length inputs in
  let delta = Array.init size (fun _ -> Array.make n 0) in
  let lambda =
    Array.init size (fun s -> Array.init n (fun i -> snd (step s inputs.(i))))
  in
  for s = 0 to size - 1 do
    for i = 0 to n - 1 do
      delta.(s).(i) <- fst (step s inputs.(i))
    done
  done;
  make ~size ~initial ~inputs ~delta ~lambda

let size m = m.size
let initial m = m.initial
let inputs m = m.inputs
let alphabet_size m = Array.length m.inputs
let transitions m = m.size * alphabet_size m

(* The position of [x] in [inputs] by physical equality, or -1: symbols
   normally are the alphabet's own values. Since {!make} rejects a
   repeated symbol, a hit is the structural position too. *)
let rec scan inputs x i =
  if i = Array.length inputs then -1
  else if Array.unsafe_get inputs i == x then i
  else scan inputs x (i + 1)

let probe inputs x = if Array.length inputs > 32 then -1 else scan inputs x 0

let input_index m x =
  let i = probe m.inputs x in
  if i >= 0 then i
  else
    let n = Array.length m.inputs in
    let rec loop i =
      if i >= n then raise Not_found
      else if m.inputs.(i) = x then i
      else loop (i + 1)
    in
    loop 0

let step_idx m s i = (m.delta.(s).(i), m.lambda.(s).(i))
let step m s x = step_idx m s (input_index m x)

(* --- the compiled hot path --- *)

module Packed = struct
  type ('i, 'o) machine = ('i, 'o) t
  type nonrec ('i, 'o) t = ('i, 'o) packed

  let build m =
    let n = Array.length m.inputs in
    let next = Array.make (m.size * n) 0 in
    let out = Array.make (m.size * n) 0 in
    let out_ids = Hashtbl.create 16 in
    let out_list = ref [] in
    let n_outs = ref 0 in
    let intern o =
      match Hashtbl.find_opt out_ids o with
      | Some id -> id
      | None ->
          let id = !n_outs in
          Hashtbl.add out_ids o id;
          out_list := o :: !out_list;
          incr n_outs;
          id
    in
    for s = 0 to m.size - 1 do
      let base = s * n in
      let drow = m.delta.(s) and lrow = m.lambda.(s) in
      for i = 0 to n - 1 do
        next.(base + i) <- drow.(i);
        out.(base + i) <- intern lrow.(i)
      done
    done;
    let outputs = Array.of_list (List.rev !out_list) in
    Metrics.inc m_packs;
    {
      p_size = m.size;
      p_initial = m.initial;
      p_alpha = n;
      p_next = next;
      p_out = out;
      p_outputs = outputs;
    }

  (* Memoized: repeated packs of the same machine are one field read.
     Not domain-safe — pack a machine before sharing it across domains
     (fleet sessions on [Service.run ~domains]). *)
  let pack m =
    match m.packed_ with
    | Some p -> p
    | None ->
        let p = build m in
        m.packed_ <- Some p;
        p

  (* Pure id-level stepping over pre-interned words. *)
  let run_ids p s0 word_ids =
    let len = Array.length word_ids in
    let out = Array.make len 0 in
    let s = ref s0 in
    for k = 0 to len - 1 do
      let base = (!s * p.p_alpha) + Array.unsafe_get word_ids k in
      Array.unsafe_set out k (Array.unsafe_get p.p_out base);
      s := Array.unsafe_get p.p_next base
    done;
    Metrics.inc ~by:len m_packed_steps;
    out

  let outputs p = p.p_outputs
end

let pack = Packed.pack

let positions m word = Array.of_list (List.map (input_index m) word)

let run_from m s word =
  let p = pack m in
  Array.fold_right
    (fun o w -> p.p_outputs.(o) :: w)
    (Packed.run_ids p s (positions m word))
    []

let run m word = run_from m m.initial word

let state_after m word =
  Array.fold_left (fun s i -> m.delta.(s).(i)) m.initial (positions m word)

(* Functional reference stepping, bypassing the packed form: the
   differential baseline the QCheck observational-equality property and
   the A9 ablation compare {!run} against. *)
let run_reference_from m s0 word =
  let rec loop s acc = function
    | [] -> List.rev acc
    | x :: rest ->
        let s', o = step m s x in
        loop s' (o :: acc) rest
  in
  loop s0 [] word

let run_reference m word = run_reference_from m m.initial word

(* The one breadth-first search from the initial state (FIFO, inputs in
   alphabet order) behind {!reachable}, {!canonicalize} and
   {!access_ids}: the reachable states in discovery order, and for each
   state the edge that discovered it, [(predecessor * alphabet) +
   input] (-1 for the initial state and the unreachable ones). *)
let bfs m =
  let n = Array.length m.inputs in
  let via = Array.make m.size (-1) in
  let seen = Array.make m.size false in
  let order = Array.make m.size m.initial in
  seen.(m.initial) <- true;
  let head = ref 0 and tail = ref 1 in
  while !head < !tail do
    let s = order.(!head) in
    incr head;
    Array.iteri
      (fun i s' ->
        if not seen.(s') then begin
          seen.(s') <- true;
          via.(s') <- (s * n) + i;
          order.(!tail) <- s';
          incr tail
        end)
      m.delta.(s)
  done;
  (Array.sub order 0 !tail, via)

let reachable m = Array.mapi (fun s e -> e >= 0 || s = m.initial) (snd (bfs m))

let trim m =
  let seen = reachable m in
  let remap = Array.make m.size (-1) in
  let count = ref 0 in
  for s = 0 to m.size - 1 do
    if seen.(s) then begin
      remap.(s) <- !count;
      incr count
    end
  done;
  if !count = m.size then m
  else begin
    let n = Array.length m.inputs in
    let delta = Array.init !count (fun _ -> Array.make n 0) in
    let lambda = Array.init !count (fun _ -> Array.make n m.lambda.(m.initial).(0)) in
    for s = 0 to m.size - 1 do
      if seen.(s) then begin
        let s' = remap.(s) in
        for i = 0 to n - 1 do
          delta.(s').(i) <- remap.(m.delta.(s).(i));
          lambda.(s').(i) <- m.lambda.(s).(i)
        done
      end
    done;
    make ~size:!count ~initial:remap.(m.initial) ~inputs:m.inputs ~delta ~lambda
  end

(* Moore-style partition refinement: start from the partition induced by
   output rows, refine by successor-block signatures until stable. *)
let minimize m =
  let m = trim m in
  let n = Array.length m.inputs in
  let block = Array.make m.size 0 in
  (* Initial partition by output row. *)
  let tbl = Hashtbl.create 16 in
  let next = ref 0 in
  for s = 0 to m.size - 1 do
    let key = Array.to_list m.lambda.(s) in
    match Hashtbl.find_opt tbl key with
    | Some b -> block.(s) <- b
    | None ->
        Hashtbl.add tbl key !next;
        block.(s) <- !next;
        incr next
  done;
  let blocks = ref !next in
  let changed = ref true in
  while !changed do
    changed := false;
    let tbl = Hashtbl.create 16 in
    let next = ref 0 in
    let new_block = Array.make m.size 0 in
    for s = 0 to m.size - 1 do
      let key = (block.(s), List.init n (fun i -> block.(m.delta.(s).(i)))) in
      match Hashtbl.find_opt tbl key with
      | Some b -> new_block.(s) <- b
      | None ->
          Hashtbl.add tbl key !next;
          new_block.(s) <- !next;
          incr next
    done;
    if !next <> !blocks then begin
      changed := true;
      blocks := !next;
      Array.blit new_block 0 block 0 m.size
    end
  done;
  if !blocks = m.size then m
  else begin
    (* One representative per block. *)
    let rep = Array.make !blocks (-1) in
    for s = m.size - 1 downto 0 do
      rep.(block.(s)) <- s
    done;
    let delta = Array.init !blocks (fun b -> Array.init n (fun i -> block.(m.delta.(rep.(b)).(i)))) in
    let lambda = Array.init !blocks (fun b -> Array.copy m.lambda.(rep.(b))) in
    make ~size:!blocks ~initial:block.(m.initial) ~inputs:m.inputs ~delta ~lambda
  end

(* BFS renumbering: states are numbered in the order breadth-first
   search from the initial state discovers them, exploring inputs in
   alphabet order; unreachable states are dropped. Isomorphic machines
   over the same alphabet therefore produce structurally equal
   delta/lambda matrices — the property the canonical textual model
   format relies on for byte-identical serialization. *)
let canonicalize m =
  let order = fst (bfs m) in
  let rank = Array.make m.size (-1) in
  Array.iteri (fun q s -> rank.(s) <- q) order;
  let delta =
    Array.map (fun s -> Array.map (fun s' -> rank.(s')) m.delta.(s)) order
  in
  let lambda = Array.map (fun s -> Array.copy m.lambda.(s)) order in
  make ~size:(Array.length order) ~initial:0 ~inputs:m.inputs ~delta ~lambda

let same_alphabet a b =
  Array.length a.inputs = Array.length b.inputs
  && Array.for_all2 (fun x y -> x = y) a.inputs b.inputs

(* BFS over the product of two packed machines from states [sa] and
   [sb]: product states are encoded as [sa * |b| + sb] into a
   byte-per-state visited map and an int queue, so the search allocates
   nothing per edge. [differs] compares two output ids (of [pa] and
   [pb]). The dequeue order (FIFO, inputs in alphabet order) is fixed,
   so the returned word — alphabet positions along the first separating
   edge encountered — is deterministic. *)
let product_bfs pa pb sa sb differs =
  let n = pa.p_alpha in
  let nb = pb.p_size in
  let total = pa.p_size * nb in
  let seen = Bytes.make total '\000' in
  let parent = Array.make total (-1) in
  (* parent pointer encodes (predecessor product state, input index) *)
  let queue = Array.make total 0 in
  let head = ref 0 and tail = ref 0 in
  let start = (sa * nb) + sb in
  Bytes.unsafe_set seen start '\001';
  queue.(!tail) <- start;
  incr tail;
  let result = ref (-1) and result_i = ref (-1) in
  (try
     while !head < !tail do
       let pq = queue.(!head) in
       incr head;
       let base_a = pq / nb * n and base_b = pq mod nb * n in
       for i = 0 to n - 1 do
         if !result < 0 then begin
           if
             differs
               (Array.unsafe_get pa.p_out (base_a + i))
               (Array.unsafe_get pb.p_out (base_b + i))
           then begin
             result := pq;
             result_i := i;
             raise Exit
           end;
           let pq' =
             (Array.unsafe_get pa.p_next (base_a + i) * nb)
             + Array.unsafe_get pb.p_next (base_b + i)
           in
           if Bytes.unsafe_get seen pq' = '\000' then begin
             Bytes.unsafe_set seen pq' '\001';
             parent.(pq') <- (pq * n) + i;
             queue.(!tail) <- pq';
             incr tail
           end
         end
       done
     done
   with Exit -> ());
  if !result < 0 then None
  else begin
    (* Rebuild the input word along the parent chain. *)
    let rec path acc pq =
      if pq = start && parent.(pq) < 0 then acc
      else
        let enc = parent.(pq) in
        path ((enc mod n) :: acc) (enc / n)
    in
    Some (Array.of_list (path [ !result_i ] !result))
  end

let decode inputs ids = Array.fold_right (fun i w -> inputs.(i) :: w) ids []

let difference_ids a b =
  if Array.length a.inputs <> Array.length b.inputs then
    invalid_arg "Mealy.difference_ids: different alphabet sizes";
  let pa = pack a and pb = pack b in
  product_bfs pa pb pa.p_initial pb.p_initial (fun oa ob ->
      Array.unsafe_get pa.p_outputs oa <> Array.unsafe_get pb.p_outputs ob)

let equivalent a b =
  if not (same_alphabet a b) then
    invalid_arg "Mealy.equivalent: machines have different alphabets";
  Option.map (decode a.inputs) (difference_ids a b)

let access_ids m =
  let n = Array.length m.inputs in
  let order, via = bfs m in
  let words = Array.make m.size [||] in
  Array.iter
    (fun s ->
      let e = via.(s) in
      if e >= 0 then words.(s) <- Array.append words.(e / n) [| e mod n |])
    order;
  words

let access_words m = Array.map (decode m.inputs) (access_ids m)

(* The same product BFS, between two states of one machine. *)
let distinguishing_ids m p q =
  let pm = pack m in
  product_bfs pm pm p q ( <> )

let distinguishing_word m p q =
  Option.map (decode m.inputs) (distinguishing_ids m p q)

let characterizing_ids m =
  let pm = pack m in
  let words = ref [] in
  let covered p q =
    List.exists
      (fun w -> Packed.run_ids pm p w <> Packed.run_ids pm q w)
      !words
  in
  for p = 0 to m.size - 1 do
    for q = p + 1 to m.size - 1 do
      if not (covered p q) then
        Option.iter (fun w -> words := w :: !words) (distinguishing_ids m p q)
    done
  done;
  if !words = [] then [ [||] ] else !words

let characterizing_set m = List.map (decode m.inputs) (characterizing_ids m)

let count_words ~alphabet ~max_len =
  let rec loop k pow acc =
    if k > max_len then acc else loop (k + 1) (pow * alphabet) (acc + (pow * alphabet))
  in
  loop 1 1 0

let to_dot ?(name = "mealy") ~input_pp ~output_pp m =
  let buf = Buffer.create 1024 in
  let fmt = Format.formatter_of_buffer buf in
  Format.fprintf fmt "digraph %s {@\n  rankdir=LR;@\n  node [shape=circle];@\n" name;
  Format.fprintf fmt "  __start [shape=none,label=\"\"];@\n  __start -> s%d;@\n" m.initial;
  let n = Array.length m.inputs in
  for s = 0 to m.size - 1 do
    (* Group parallel edges by target state. *)
    let by_target = Hashtbl.create 4 in
    for i = 0 to n - 1 do
      let t = m.delta.(s).(i) in
      let label =
        Format.asprintf "%a / %a" input_pp m.inputs.(i) output_pp m.lambda.(s).(i)
      in
      let prev = try Hashtbl.find by_target t with Not_found -> [] in
      Hashtbl.replace by_target t (label :: prev)
    done;
    Hashtbl.iter
      (fun t labels ->
        let label = String.concat "\\n" (List.rev labels) in
        Format.fprintf fmt "  s%d -> s%d [label=\"%s\"];@\n" s t label)
      by_target
  done;
  Format.fprintf fmt "}@.";
  Buffer.contents buf

let map_outputs f m =
  { m with lambda = Array.map (Array.map f) m.lambda; packed_ = None }
