module Mealy = Prognosis_automata.Mealy

type ('i, 'o) witness = {
  word : 'i list;
  outputs_a : 'o list;
  outputs_b : 'o list;
}

let make_witness a b word =
  { word; outputs_a = Mealy.run a word; outputs_b = Mealy.run b word }

(* Mealy's packed product BFS (FIFO, inputs in alphabet order): the
   first disagreeing edge has minimal depth, and ties break on (BFS
   discovery order, alphabet position) — both functions of the two
   machines alone, so the returned word is deterministic across runs.
   The fingerprint splitter relies on both properties: shortest words
   keep classification trees shallow, determinism keeps them
   byte-stable. *)
let shortest_difference a b =
  Option.map
    (fun w -> make_witness a b (Mealy.decode (Mealy.inputs a) w))
    (Mealy.difference_ids a b)

let iter_product a b edge =
  let n = Mealy.alphabet_size a in
  if n <> Mealy.alphabet_size b then
    invalid_arg "Model_diff.iter_product: different alphabets";
  let seen = Hashtbl.create 64 in
  let queue = Queue.create () in
  let start = (Mealy.initial a, Mealy.initial b) in
  Hashtbl.add seen start ();
  Queue.add (start, []) queue;
  let go = ref true in
  while !go && not (Queue.is_empty queue) do
    let ((sa, sb) as pair), path = Queue.pop queue in
    let i = ref 0 in
    while !go && !i < n do
      let sa', oa = Mealy.step_idx a sa !i in
      let sb', ob = Mealy.step_idx b sb !i in
      let next = (sa', sb') in
      go := edge ~path pair !i next oa ob;
      if not (Hashtbl.mem seen next) then begin
        Hashtbl.add seen next ();
        Queue.add (next, (Mealy.inputs a).(!i) :: path) queue
      end;
      incr i
    done
  done

(* One witness per disagreeing (state-pair, input) edge; exploration
   continues past disagreements so several divergence sites are
   sampled. *)
let differences ~max a b =
  let found = ref [] and count = ref 0 in
  if max > 0 then
    iter_product a b (fun ~path _ i _ oa ob ->
        if oa <> ob then begin
          found :=
            make_witness a b (List.rev ((Mealy.inputs a).(i) :: path)) :: !found;
          incr count
        end;
        !count < max);
  List.rev !found

type ('i, 'o) summary = {
  states_a : int;
  states_b : int;
  transitions_a : int;
  transitions_b : int;
  equivalent_ : bool;
  witnesses : ('i, 'o) witness list;
}

let summarize ?(max_witnesses = 5) a b =
  let witnesses = differences ~max:max_witnesses a b in
  {
    states_a = Mealy.size a;
    states_b = Mealy.size b;
    transitions_a = Mealy.transitions a;
    transitions_b = Mealy.transitions b;
    equivalent_ = witnesses = [];
    witnesses;
  }

let pp_summary ~input_pp ~output_pp fmt s =
  Format.fprintf fmt "model A: %d states / %d transitions@\n" s.states_a
    s.transitions_a;
  Format.fprintf fmt "model B: %d states / %d transitions@\n" s.states_b
    s.transitions_b;
  if s.equivalent_ then Format.fprintf fmt "models are equivalent@\n"
  else begin
    Format.fprintf fmt "models differ; %d witness(es):@\n"
      (List.length s.witnesses);
    List.iter
      (fun w ->
        Format.fprintf fmt "  on %a:@\n    A: %a@\n    B: %a@\n"
          (Format.pp_print_list
             ~pp_sep:(fun fmt () -> Format.pp_print_string fmt " ")
             input_pp)
          w.word
          (Format.pp_print_list
             ~pp_sep:(fun fmt () -> Format.pp_print_string fmt " ")
             output_pp)
          w.outputs_a
          (Format.pp_print_list
             ~pp_sep:(fun fmt () -> Format.pp_print_string fmt " ")
             output_pp)
          w.outputs_b)
      s.witnesses
  end
