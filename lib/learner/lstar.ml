module Mealy = Prognosis_automata.Mealy
module Metrics = Prognosis_obs.Metrics
module Trace = Prognosis_obs.Trace
module Jsonx = Prognosis_obs.Jsonx

let m_rounds = Metrics.counter Metrics.default "learner.rounds"
let m_cex = Metrics.counter Metrics.default "learner.counterexamples"
let h_cex_len = Metrics.histogram Metrics.default "learner.cex_length"

(* Access words and suffixes are alphabet positions, cells are output
   ids. *)
type ('i, 'o) state = {
  b : ('i, 'o) Oracle.bound;
  mutable s : int array list; (* prefix-closed access words, insertion order *)
  mutable e : int array list; (* suffix-closed, nonempty columns *)
}

let create ~inputs mq =
  if Array.length inputs = 0 then invalid_arg "Lstar.create: empty alphabet";
  let e = List.init (Array.length inputs) (fun i -> [| i |]) in
  { b = Oracle.bind mq inputs; s = [ [||] ]; e }

let row t u = List.map (Oracle.suffix t.b u) t.e

let rows t = List.length t.s
let columns t = List.length t.e

(* Make the table closed: every one-symbol extension of an S-row must
   match some S-row; otherwise promote the extension into S. *)
let close t =
  let progress = ref true in
  while !progress do
    progress := false;
    let s_rows = Hashtbl.create 16 in
    List.iter (fun u -> Hashtbl.replace s_rows (row t u) ()) t.s;
    let missing =
      List.concat_map
        (fun u ->
          List.filter_map
            (fun a ->
              let ua = Array.append u [| a |] in
              if List.mem ua t.s then None
              else if Hashtbl.mem s_rows (row t ua) then None
              else Some ua)
            (List.init (Array.length (Oracle.alphabet t.b)) Fun.id))
        t.s
    in
    match missing with
    | [] -> ()
    | ua :: _ ->
        t.s <- t.s @ [ ua ];
        progress := true
  done

let hypothesis t =
  close t;
  (* Map each distinct row to a state number; the state of an S-word is
     the state of its row. *)
  let row_ids = Hashtbl.create 16 in
  let reps = ref [] in
  List.iter
    (fun u ->
      let r = row t u in
      if not (Hashtbl.mem row_ids r) then begin
        Hashtbl.add row_ids r (Hashtbl.length row_ids);
        reps := u :: !reps
      end)
    t.s;
  let reps = Array.of_list (List.rev !reps) in
  let size = Array.length reps in
  let n = Array.length (Oracle.alphabet t.b) in
  let state_of u = Hashtbl.find row_ids (row t u) in
  let delta = Array.init size (fun _ -> Array.make n 0) in
  let lambda =
    Array.init size (fun q ->
        Array.init n (fun i ->
            Oracle.output t.b (Oracle.suffix t.b reps.(q) [| i |]).(0)))
  in
  for q = 0 to size - 1 do
    for i = 0 to n - 1 do
      delta.(q).(i) <- state_of (Array.append reps.(q) [| i |])
    done
  done;
  Mealy.make ~size ~initial:(state_of [||]) ~inputs:(Oracle.alphabet t.b) ~delta
    ~lambda

let refine t cex =
  (* Shahbaz–Groz: add every nonempty suffix of the counterexample to E. *)
  let w = Oracle.encode t.b cex in
  let n = Array.length w in
  for i = 0 to n - 1 do
    let suffix = Array.sub w i (n - i) in
    if not (List.mem suffix t.e) then t.e <- t.e @ [ suffix ]
  done

let learn ?(max_rounds = 100) ?(on_round = fun ~round:_ ~states:_ -> ()) ~inputs
    ~mq ~eq () =
  let t = create ~inputs mq in
  let rec loop round =
    if round > max_rounds then failwith "Lstar.learn: max_rounds exceeded";
    Metrics.inc m_rounds;
    let h, cex =
      Trace.with_span
        ~attrs:
          [
            ("algorithm", Jsonx.String "lstar");
            ("round", Jsonx.Int round);
            ("phase", Jsonx.String "learning");
          ]
        "learner.round"
        (fun () ->
          let h =
            Trace.with_span "learner.hypothesis" (fun () -> hypothesis t)
          in
          Trace.add_attr "hypothesis_states" (Jsonx.Int (Mealy.size h));
          Trace.add_attr "table_rows" (Jsonx.Int (rows t));
          Trace.add_attr "table_columns" (Jsonx.Int (columns t));
          on_round ~round ~states:(Mealy.size h);
          mq.Oracle.stats.equivalence_queries <-
            mq.Oracle.stats.equivalence_queries + 1;
          let cex =
            Trace.with_span
              ~attrs:[ ("phase", Jsonx.String "eq-oracle") ]
              "learner.eq_query"
              (fun () -> eq mq h)
          in
          (h, cex))
    in
    match cex with
    | None -> (h, round)
    | Some cex ->
        Metrics.inc m_cex;
        Metrics.observe h_cex_len (float_of_int (List.length cex));
        Trace.with_span
          ~attrs:[ ("cex_len", Jsonx.Int (List.length cex)) ]
          "learner.refine"
          (fun () -> refine t cex);
        loop (round + 1)
  in
  loop 1
