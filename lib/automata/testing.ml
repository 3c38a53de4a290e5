(* Suites are built as alphabet positions; the list views decode them. *)
let decode m = List.map (Mealy.decode (Mealy.inputs m))

(* The reachable states and their access words [words]
   ({!Mealy.access_ids}), in state order: only the initial state and
   the unreachable ones have an empty access word. *)
let access_list m words =
  List.filter
    (fun (s, w) -> s = Mealy.initial m || Array.length w > 0)
    (List.init (Mealy.size m) (fun s -> (s, words.(s))))

let state_cover_ids m = List.map snd (access_list m (Mealy.access_ids m))

let transition_cover_ids m =
  let n = Mealy.alphabet_size m in
  List.concat_map
    (fun w -> List.init n (fun i -> Array.append w [| i |]))
    (state_cover_ids m)

let middle_ids n k =
  let rec extend words len =
    if len = 0 then []
    else
      let longer =
        List.concat_map (fun w -> List.init n (fun i -> Array.append w [| i |])) words
      in
      longer @ extend longer (len - 1)
  in
  [||] :: extend [ [||] ] k

let state_cover m = decode m (state_cover_ids m)
let transition_cover m = decode m (transition_cover_ids m)

let middle_words alphabet k =
  List.map (Mealy.decode alphabet) (middle_ids (Array.length alphabet) k)

(* --- the suite builder ---

   A suite is its candidates' first occurrences, in candidate order.
   Candidates are walked into a trie over alphabet positions: node
   [v]'s child on input [i] is slot [v * stride + i] (0 is none, as
   the root is nobody's child) and slot [v * stride + n] marks a node
   a kept word ended on. A candidate is kept, and only then copied,
   when its walk ends on an unmarked node: no hashing, no appending.
   Slots are 32-bit, in one buffer the process keeps between suites:
   a build takes it (a build racing it on another domain makes its
   own), clears the previous suite's slots and gives it back, so a
   suite allocates only the words it keeps and their list. *)

type arena = {
  mutable kids : Bytes.t;
  mutable used : int;
  mutable stride : int;
}

let spare = Atomic.make None
let get a slot = Int32.to_int (Bytes.get_int32_ne a.kids (slot lsl 2))
let set a slot v = Bytes.set_int32_ne a.kids (slot lsl 2) (Int32.of_int v)

let take n =
  let a =
    match Atomic.exchange spare None with
    | Some a -> a
    | None -> { kids = Bytes.empty; used = 0; stride = 0 }
  in
  Bytes.fill a.kids 0 (a.used * a.stride * 4) '\000';
  a.stride <- n + 1;
  a.used <- 1;
  if Bytes.length a.kids < 1024 * a.stride then
    a.kids <- Bytes.make (1024 * a.stride) '\000';
  a

let give a = Atomic.set spare (Some a)

let child a v i =
  let slot = (v * a.stride) + i in
  let c = get a slot in
  if c <> 0 then c
  else begin
    let c = a.used in
    if (c + 1) * a.stride * 4 > Bytes.length a.kids then begin
      let kids = Bytes.make (2 * Bytes.length a.kids) '\000' in
      Bytes.blit a.kids 0 kids 0 (c * a.stride * 4);
      a.kids <- kids
    end;
    a.used <- c + 1;
    set a slot c;
    c
  end

let rec walk a v w k =
  if k = Array.length w then v else walk a (child a v w.(k)) w (k + 1)

let blit src dst off =
  for k = 0 to Array.length src - 1 do
    Array.unsafe_set dst (off + k) (Array.unsafe_get src k)
  done

(* Keeps [p · x · mid · s] ([x] < 0: no symbol) when its walk, already
   at [v] after [p · x · mid], ends on an unmarked node. *)
let keep a acc v p x mid s =
  let e = walk a v s 0 in
  let mark = (e * a.stride) + a.stride - 1 in
  if get a mark = 0 then begin
    set a mark 1;
    let lp = Array.length p and lx = if x < 0 then 0 else 1 in
    let lm = Array.length mid in
    let w = Array.make (lp + lx + lm + Array.length s) 0 in
    blit p w 0;
    if lx = 1 then w.(lp) <- x;
    blit mid w (lp + lx);
    blit s w (lp + lx + lm);
    acc := w :: !acc
  end

let w_method_ids ?(extra_states = 0) m =
  let n = Mealy.alphabet_size m in
  let mid = middle_ids n extra_states and w = Mealy.characterizing_ids m in
  let a = take n and acc = ref [] in
  List.iter
    (fun (_, p) ->
      let vp = walk a 0 p 0 in
      for x = 0 to n - 1 do
        let vx = child a vp x in
        List.iter
          (fun middle ->
            let vm = walk a vx middle 0 in
            List.iter (fun s -> keep a acc vm p x middle s) w)
          mid
      done)
    (access_list m (Mealy.access_ids m));
  give a;
  List.rev !acc

let w_method ?extra_states m = decode m (w_method_ids ?extra_states m)

(* Per-state identification set: words from the characterizing set that
   distinguish this state from some other state. *)
let identification_sets m w =
  let p = Mealy.pack m in
  Array.init (Mealy.size m) (fun s ->
      List.filter
        (fun word ->
          let out_s = Mealy.Packed.run_ids p s word in
          let differs = ref false in
          for t = 0 to Mealy.size m - 1 do
            if t <> s && Mealy.Packed.run_ids p t word <> out_s then differs := true
          done;
          !differs)
        w)

let wp_method_ids ?(extra_states = 0) m =
  let n = Mealy.alphabet_size m in
  let w = Mealy.characterizing_ids m in
  let ids = identification_sets m w in
  let words = Mealy.access_ids m in
  let mid = middle_ids n extra_states and access = access_list m words in
  let a = take n and acc = ref [] in
  (* Phase 1: state cover × middles × W. *)
  List.iter
    (fun (_, p) ->
      let vp = walk a 0 p 0 in
      List.iter
        (fun middle ->
          let vm = walk a vp middle 0 in
          List.iter (fun s -> keep a acc vm p (-1) middle s) w)
        mid)
    access;
  (* Phase 2: the other transition-cover words × middles × W of the
     state reached. [p · x] is in the state cover exactly when it is
     the access word of the state it leads to. *)
  let after s i = fst (Mealy.step_idx m s i) in
  List.iter
    (fun (q, p) ->
      let vp = walk a 0 p 0 in
      for x = 0 to n - 1 do
        let t = after q x in
        let wt = words.(t) and lp = Array.length p in
        let rec is_p k = k = lp || (wt.(k) = p.(k) && is_p (k + 1)) in
        if not (Array.length wt = lp + 1 && wt.(lp) = x && is_p 0) then begin
          let vx = child a vp x in
          List.iter
            (fun middle ->
              let vm = walk a vx middle 0 in
              match ids.(Array.fold_left after t middle) with
              | [] -> keep a acc vm p x middle [||]
              | id -> List.iter (fun s -> keep a acc vm p x middle s) id)
            mid
        end
      done)
    access;
  give a;
  List.rev !acc

let wp_method ?extra_states m = decode m (wp_method_ids ?extra_states m)

let suite_size suite = List.length suite
let suite_symbols suite = List.fold_left (fun n w -> n + List.length w) 0 suite
