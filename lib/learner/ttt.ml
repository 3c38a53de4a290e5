module Mealy = Prognosis_automata.Mealy
module Metrics = Prognosis_obs.Metrics
module Trace = Prognosis_obs.Trace
module Jsonx = Prognosis_obs.Jsonx

(* Same registry entries as Lstar: [Metrics.counter] is get-or-create,
   so both algorithms report into one set of learner metrics. *)
let m_rounds = Metrics.counter Metrics.default "learner.rounds"
let m_cex = Metrics.counter Metrics.default "learner.counterexamples"
let h_cex_len = Metrics.histogram Metrics.default "learner.cex_length"

(* Leaves are leaf ids; access words and discriminators are alphabet
   positions, tree keys are output ids: the tree never touches a
   symbol. *)
type cell = { mutable contents : contents }
and contents = Leaf of int | Node of node

and node = {
  discriminator : int array;
  mutable children : (int array * cell) list;
}

type ('i, 'o) state = {
  b : ('i, 'o) Oracle.bound;
  root : cell;
  mutable next_id : int;
  cells : (int, cell) Hashtbl.t; (* leaf id -> enclosing cell *)
  accesses : (int, int array) Hashtbl.t;
}

let leaves t = t.next_id

let fresh_leaf t access =
  let leaf = t.next_id in
  t.next_id <- t.next_id + 1;
  Hashtbl.add t.accesses leaf access;
  leaf

let create ~inputs mq =
  if Array.length inputs = 0 then invalid_arg "Ttt.create: empty alphabet";
  let root = { contents = Leaf 0 } and cells = Hashtbl.create 16 in
  let accesses = Hashtbl.create 16 in
  let t = { b = Oracle.bind mq inputs; root; next_id = 0; cells; accesses } in
  Hashtbl.add cells (fresh_leaf t [||]) root;
  t

(* Sift an access word down the tree to the leaf representing its
   SUL state, extending the tree with a fresh leaf when the word
   exhibits a new combination of discriminator outputs. *)
let rec sift t cell u =
  match cell.contents with
  | Leaf l -> l
  | Node n -> (
      let out = Oracle.suffix t.b u n.discriminator in
      match List.find_opt (fun (o, _) -> Oracle.equal_ids o out) n.children with
      | Some (_, child) -> sift t child u
      | None ->
          let leaf = fresh_leaf t u in
          let child = { contents = Leaf leaf } in
          n.children <- (out, child) :: n.children;
          Hashtbl.add t.cells leaf child;
          leaf)

(* The hypothesis with, for each of its states, the leaf it stands for. *)
let build t =
  let n = Array.length (Oracle.alphabet t.b) in
  let transitions : (int, int array * int array) Hashtbl.t = Hashtbl.create 16 in
  let pending = Queue.create () in
  let initial = sift t t.root [||] in
  Queue.add initial pending;
  let enqueued = Hashtbl.create 16 in
  Hashtbl.add enqueued initial ();
  while not (Queue.is_empty pending) do
    let q = Queue.pop pending in
    if not (Hashtbl.mem transitions q) then begin
      let u = Hashtbl.find t.accesses q in
      let targets = Array.make n 0 in
      let outputs = Array.init n (fun i -> (Oracle.suffix t.b u [| i |]).(0)) in
      for i = 0 to n - 1 do
        let target = sift t t.root (Array.append u [| i |]) in
        targets.(i) <- target;
        if not (Hashtbl.mem enqueued target) then begin
          Hashtbl.add enqueued target ();
          Queue.add target pending
        end
      done;
      Hashtbl.replace transitions q (targets, outputs)
    end
  done;
  (* Leaf ids are dense but possibly include leaves unreachable in the
     current hypothesis; renumber the reachable ones. *)
  let ids = Hashtbl.fold (fun id _ acc -> id :: acc) transitions [] in
  let ids = Array.of_list (List.sort compare ids) in
  let renumber = Hashtbl.create 16 in
  Array.iteri (fun idx id -> Hashtbl.add renumber id idx) ids;
  let size = Array.length ids in
  let delta = Array.init size (fun _ -> Array.make n 0) in
  let lambda =
    Array.map
      (fun id -> Array.map (Oracle.output t.b) (snd (Hashtbl.find transitions id)))
      ids
  in
  Array.iteri
    (fun idx id ->
      let targets, _ = Hashtbl.find transitions id in
      for i = 0 to n - 1 do
        delta.(idx).(i) <- Hashtbl.find renumber targets.(i)
      done)
    ids;
  let machine =
    Mealy.make ~size ~initial:(Hashtbl.find renumber initial)
      ~inputs:(Oracle.alphabet t.b) ~delta ~lambda
  in
  (machine, fun state_idx -> ids.(state_idx))

(* [refine] with the round's own [build t]: the tree has not changed. *)
let refine_with t (h, leaf_of) cex =
  let access_of q = Hashtbl.find t.accesses (leaf_of q) in
  let w = Oracle.encode t.b cex in
  let hyp_out = Oracle.replay t.b h w in
  if Oracle.equal_ids (Oracle.query t.b w) hyp_out then false
  else begin
    let n = Array.length w in
    (* states.(i) is the hypothesis state reached on w[:i]. *)
    let states = Array.make (n + 1) (Mealy.initial h) in
    for i = 0 to n - 1 do
      states.(i + 1) <- fst (Mealy.step_idx h states.(i) w.(i))
    done;
    (* phi i = hypothesis outputs on w[:i] followed by the SUL's
       outputs for w[i:] after replaying the access word of the
       hypothesis state reached on w[:i]. phi 0 <> phi n, and any
       adjacent disagreement yields a state to split. *)
    let memo = Hashtbl.create 8 in
    let phi i =
      match Hashtbl.find_opt memo i with
      | Some v -> v
      | None ->
          let v =
            Array.append (Array.sub hyp_out 0 i)
              (Oracle.suffix t.b (access_of states.(i)) (Array.sub w i (n - i)))
          in
          Hashtbl.add memo i v;
          v
    in
    let lo = ref 0 and hi = ref n in
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if Oracle.equal_ids (phi mid) (phi !hi) then hi := mid else lo := mid
    done;
    let i = !lo in
    (* Splitting needs the symbol w.(i) and a non-empty suffix v after it. *)
    n - i >= 2
    &&
    let v = Array.sub w (i + 1) (n - i - 1) in
    let old_access = access_of states.(i + 1) in
    let new_access = Array.append (access_of states.(i)) [| w.(i) |] in
    let out_old = Oracle.suffix t.b old_access v in
    let out_new = Oracle.suffix t.b new_access v in
    (not (Oracle.equal_ids out_old out_new))
    &&
    (* Split the leaf of the state after w[:i+1]: its cell becomes an
       inner node discriminating with v between the old and the new
       state. *)
    let old_leaf = leaf_of states.(i + 1) in
    let cell = Hashtbl.find t.cells old_leaf in
    let new_leaf = fresh_leaf t new_access in
    let old_cell = { contents = Leaf old_leaf } in
    let new_cell = { contents = Leaf new_leaf } in
    cell.contents <-
      Node
        {
          discriminator = v;
          children = [ (out_old, old_cell); (out_new, new_cell) ];
        };
    Hashtbl.replace t.cells old_leaf old_cell;
    Hashtbl.replace t.cells new_leaf new_cell;
    true
  end

let refine t cex = refine_with t (build t) cex
let hypothesis t = fst (build t)

let learn ?(max_rounds = 200) ?(on_round = fun ~round:_ ~states:_ -> ()) ~inputs
    ~mq ~eq () =
  let t = create ~inputs mq in
  let rec loop round =
    if round > max_rounds then failwith "Ttt.learn: max_rounds exceeded";
    Metrics.inc m_rounds;
    let ((h, _) as built), cex =
      Trace.with_span
        ~attrs:
          [
            ("algorithm", Jsonx.String "ttt");
            ("round", Jsonx.Int round);
            ("phase", Jsonx.String "learning");
          ]
        "learner.round"
        (fun () ->
          let ((h, _) as built) =
            Trace.with_span "learner.hypothesis" (fun () -> build t)
          in
          Trace.add_attr "hypothesis_states" (Jsonx.Int (Mealy.size h));
          Trace.add_attr "tree_leaves" (Jsonx.Int (leaves t));
          on_round ~round ~states:(Mealy.size h);
          mq.Oracle.stats.equivalence_queries <-
            mq.Oracle.stats.equivalence_queries + 1;
          let cex =
            Trace.with_span
              ~attrs:[ ("phase", Jsonx.String "eq-oracle") ]
              "learner.eq_query"
              (fun () -> eq mq h)
          in
          (built, cex))
    in
    match cex with
    | None -> (h, round)
    | Some cex ->
        Metrics.inc m_cex;
        Metrics.observe h_cex_len (float_of_int (List.length cex));
        let usable =
          Trace.with_span
            ~attrs:[ ("cex_len", Jsonx.Int (List.length cex)) ]
            "learner.refine"
            (fun () -> refine_with t built cex)
        in
        if usable then loop (round + 1)
        else failwith "Ttt.learn: unusable counterexample (nondeterministic SUL?)"
  in
  loop 1
