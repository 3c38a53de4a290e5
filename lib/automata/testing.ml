(* Suites are built as alphabet positions; the list views decode them. *)
let decode m = List.map (Mealy.decode (Mealy.inputs m))

let state_cover_ids m =
  let words = Mealy.access_ids m and seen = Mealy.reachable m in
  List.filteri (fun s _ -> seen.(s)) (Array.to_list words)

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

module Words = Hashtbl.Make (struct
  type t = int array

  let equal (a : t) b =
    Array.length a = Array.length b && Array.for_all2 Int.equal a b

  let hash (a : t) =
    let h = ref 0 in
    for i = 0 to Array.length a - 1 do
      h := (!h * 31) + Array.unsafe_get a i + 1
    done;
    !h
end)

(* The words [gen] emits, first occurrences only, in emission order;
   [n] bounds their number. One hash per word: a word is new when
   [replace] grows the table. *)
let dedup n gen =
  let seen = Words.create n and acc = ref [] in
  gen (fun w ->
      let k = Words.length seen in
      Words.replace seen w ();
      if Words.length seen > k then acc := w :: !acc);
  List.rev !acc

(* Emits prefix · middle · suffix for every middle and suffix. *)
let emit add mid suffixes prefix =
  List.iter
    (fun middle ->
      let pm = Array.append prefix middle in
      List.iter (fun s -> add (Array.append pm s)) (suffixes middle))
    mid

let w_method_ids ?(extra_states = 0) m =
  let mid = middle_ids (Mealy.alphabet_size m) extra_states in
  let w = Mealy.characterizing_ids m and tc = transition_cover_ids m in
  dedup (List.length tc * List.length mid * List.length w) (fun add ->
      List.iter (emit add mid (fun _ -> w)) tc)

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
  let w = Mealy.characterizing_ids m in
  let ids = identification_sets m w in
  let mid = middle_ids (Mealy.alphabet_size m) extra_states in
  let sc = state_cover_ids m in
  dedup 256 (fun add ->
      (* Phase 1: state cover × middles × W. *)
      List.iter (emit add mid (fun _ -> w)) sc;
      (* Phase 2: remaining transition-cover words × middles × W_{target}. *)
      List.iter
        (fun prefix ->
          if not (List.mem prefix sc) then
            emit add mid
              (fun middle ->
                let w = Mealy.decode (Mealy.inputs m) (Array.append prefix middle) in
                match ids.(Mealy.state_after m w) with
                | [] -> [ [||] ]
                | id -> id)
              prefix)
        (transition_cover_ids m))

let wp_method ?extra_states m = decode m (wp_method_ids ?extra_states m)

let suite_size suite = List.length suite
let suite_symbols suite = List.fold_left (fun n w -> n + List.length w) 0 suite
