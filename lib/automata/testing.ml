let state_cover m =
  let words = Mealy.access_words m in
  let seen = Mealy.reachable m in
  let acc = ref [] in
  for s = Mealy.size m - 1 downto 0 do
    if seen.(s) then acc := words.(s) :: !acc
  done;
  !acc

let transition_cover m =
  let words = Mealy.access_words m in
  let seen = Mealy.reachable m in
  let inputs = Mealy.inputs m in
  let acc = ref [] in
  for s = Mealy.size m - 1 downto 0 do
    if seen.(s) then
      for i = Array.length inputs - 1 downto 0 do
        acc := (words.(s) @ [ inputs.(i) ]) :: !acc
      done
  done;
  !acc

let middle_words alphabet k =
  let symbols = Array.to_list alphabet in
  let rec extend words len acc =
    if len = 0 then acc
    else
      let longer =
        List.concat_map (fun w -> List.map (fun x -> x :: w) symbols) words
      in
      extend longer (len - 1) (acc @ List.map List.rev longer)
  in
  [] :: extend [ [] ] k []

(* The first occurrence of each word, in suite order. Words are hashed
   and compared by their coding over [m]'s alphabet (positions, never
   symbol values); the table holds the suite's own words, so no key is
   built. *)
let dedup m words =
  let id = Mealy.Packed.input_index (Mealy.pack m) in
  let hash w = List.fold_left (fun h x -> (h * 31) + id x + 1) 0 w in
  let same a b = List.equal (fun x y -> id x = id y) a b in
  let seen = Hashtbl.create 64 in
  List.filter
    (fun w ->
      let h = hash w in
      if List.exists (same w) (Hashtbl.find_all seen h) then false
      else begin
        Hashtbl.add seen h w;
        true
      end)
    words

let w_method ?(extra_states = 0) m =
  let p = transition_cover m in
  let mid = middle_words (Mealy.inputs m) extra_states in
  let w = Mealy.characterizing_set m in
  let suite =
    List.concat_map
      (fun prefix ->
        List.concat_map
          (fun middle -> List.map (fun suffix -> prefix @ middle @ suffix) w)
          mid)
      p
  in
  dedup m suite

(* Per-state identification set: words from the characterizing set that
   distinguish this state from some other state. *)
let identification_sets m =
  let w = Mealy.characterizing_set m in
  Array.init (Mealy.size m) (fun s ->
      List.filter
        (fun word ->
          let out_s = Mealy.run_from m s word in
          let differs = ref false in
          for t = 0 to Mealy.size m - 1 do
            if t <> s && Mealy.run_from m t word <> out_s then differs := true
          done;
          !differs)
        w)

let wp_method ?(extra_states = 0) m =
  let ids = identification_sets m in
  let w = Mealy.characterizing_set m in
  let mid = middle_words (Mealy.inputs m) extra_states in
  (* Phase 1: state cover × middles × W. *)
  let phase1 =
    List.concat_map
      (fun prefix ->
        List.concat_map
          (fun middle -> List.map (fun suffix -> prefix @ middle @ suffix) w)
          mid)
      (state_cover m)
  in
  (* Phase 2: remaining transition-cover words × middles × W_{target}. *)
  let sc = state_cover m in
  let phase2 =
    List.concat_map
      (fun prefix ->
        if List.mem prefix sc then []
        else
          List.concat_map
            (fun middle ->
              let target = Mealy.state_after m (prefix @ middle) in
              let id = ids.(target) in
              let id = if id = [] then [ [] ] else id in
              List.map (fun suffix -> prefix @ middle @ suffix) id)
            mid)
      (transition_cover m)
  in
  dedup m (phase1 @ phase2)

let suite_size suite = List.length suite
let suite_symbols suite = List.fold_left (fun n w -> n + List.length w) 0 suite
