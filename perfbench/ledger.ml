(* In-memory span ledger for the traced pass.

   A span is one call into a layer's public function, opened and closed
   by the benchmark's own wrappers. Every span records its layer, start,
   end, parent span and op id. A layer's self time is its span time
   minus the part its child spans cover; it is accumulated when the span
   closes, so the ledger needs only a stack per domain. The root "op"
   span's self time is the unattributed remainder.

   Each domain writes to its own lane (no locks on the hot path); lanes
   are summed when the run ends. The spans of the first [retain_ops]
   traced ops are also kept verbatim and written out by [write]. *)

let now () = Int64.to_int (Monotonic_clock.now ())

(* --- names: layers (timed) and counters (counted) --- *)

let max_names = 96
let layer_names = Array.make max_names ""
let n_layers = ref 0
let counter_names = Array.make max_names ""
let n_counters = ref 0

let register names n name =
  if !n >= max_names then invalid_arg "Ledger: too many names";
  let id = !n in
  names.(id) <- name;
  incr n;
  id

let layer name = register layer_names n_layers name
let counter name = register counter_names n_counters name

let find names n name =
  let rec go i =
    if i >= !n then invalid_arg ("Ledger: unknown name " ^ name)
    else if names.(i) = name then i
    else go (i + 1)
  in
  go 0

let layer_id = find layer_names n_layers
let counter_id = find counter_names n_counters
let op_layer = layer "op"

(* --- lanes --- *)

let max_depth = 32
let rec_width = 6 (* op, id, parent, layer, start, end *)
let retain_ops = 1
let retain_cap = 400_000

type lane = {
  lane_id : int;
  mutable depth : int;
  st_layer : int array;
  st_start : int array;
  st_child : int array;
  st_id : int array;
  self_ns : int array;
  total_ns : int array;
  calls : int array;
  counts : int array;
  mutable next_id : int;
  mutable recs : int array;
  mutable nrec : int;
}

let lanes = ref []
let lanes_lock = Mutex.create ()
let current_op = Atomic.make 0

let new_lane () =
  Mutex.protect lanes_lock (fun () ->
      let l =
        {
          lane_id = List.length !lanes;
          depth = 0;
          st_layer = Array.make max_depth 0;
          st_start = Array.make max_depth 0;
          st_child = Array.make max_depth 0;
          st_id = Array.make max_depth (-1);
          self_ns = Array.make max_names 0;
          total_ns = Array.make max_names 0;
          calls = Array.make max_names 0;
          counts = Array.make max_names 0;
          next_id = 0;
          recs = [||];
          nrec = 0;
        }
      in
      lanes := l :: !lanes;
      l)

let key = Domain.DLS.new_key new_lane

let retain l ~id ~parent ~layer ~t0 ~t1 =
  let op = Atomic.get current_op in
  if op >= 1 && op <= retain_ops && l.nrec < retain_cap then begin
    if (l.nrec + 1) * rec_width > Array.length l.recs then begin
      let bigger = Array.make (max 4096 (2 * Array.length l.recs)) 0 in
      Array.blit l.recs 0 bigger 0 (l.nrec * rec_width);
      l.recs <- bigger
    end;
    let b = l.nrec * rec_width in
    l.recs.(b) <- op;
    l.recs.(b + 1) <- id;
    l.recs.(b + 2) <- parent;
    l.recs.(b + 3) <- layer;
    l.recs.(b + 4) <- t0;
    l.recs.(b + 5) <- t1;
    l.nrec <- l.nrec + 1
  end

let leave l =
  let t1 = now () in
  let d = l.depth - 1 in
  l.depth <- d;
  let layer = l.st_layer.(d) and t0 = l.st_start.(d) in
  let dur = t1 - t0 in
  l.self_ns.(layer) <- l.self_ns.(layer) + dur - l.st_child.(d);
  l.total_ns.(layer) <- l.total_ns.(layer) + dur;
  l.calls.(layer) <- l.calls.(layer) + 1;
  if d > 0 then l.st_child.(d - 1) <- l.st_child.(d - 1) + dur;
  let parent = if d > 0 then l.st_id.(d - 1) else -1 in
  retain l ~id:l.st_id.(d) ~parent ~layer ~t0 ~t1

let span layer f =
  let l = Domain.DLS.get key in
  let d = l.depth in
  if d >= max_depth then failwith "Ledger.span: nesting too deep";
  l.st_layer.(d) <- layer;
  l.st_child.(d) <- 0;
  (* span ids are namespaced by lane so merged records stay unique *)
  l.st_id.(d) <- (l.next_id lsl 20) lor l.lane_id;
  l.next_id <- l.next_id + 1;
  l.depth <- d + 1;
  l.st_start.(d) <- now ();
  match f () with
  | v ->
      leave l;
      v
  | exception e ->
      leave l;
      raise e

let add c n =
  let l = Domain.DLS.get key in
  l.counts.(c) <- l.counts.(c) + n

(* [op f] runs one traced op under a fresh op id and the root span. *)
let op f =
  Atomic.incr current_op;
  span op_layer f

(* --- summaries --- *)

type totals = {
  self_ns : int array;
  total_ns : int array;
  calls : int array;
  counts : int array;
}

let reset () =
  List.iter
    (fun (l : lane) ->
      if l.depth <> 0 then invalid_arg "Ledger.reset: span still open";
      Array.fill l.self_ns 0 max_names 0;
      Array.fill l.total_ns 0 max_names 0;
      Array.fill l.calls 0 max_names 0;
      Array.fill l.counts 0 max_names 0)
    !lanes

let totals () =
  let sum f = Array.init max_names (fun i -> List.fold_left (fun acc l -> acc + (f l).(i)) 0 !lanes) in
  {
    self_ns = sum (fun (l : lane) -> l.self_ns);
    total_ns = sum (fun (l : lane) -> l.total_ns);
    calls = sum (fun (l : lane) -> l.calls);
    counts = sum (fun (l : lane) -> l.counts);
  }

(* One tab-separated line per retained span, lanes in creation order;
   times are raw monotonic nanoseconds. *)
let write path =
  let oc = open_out path in
  output_string oc "op\tlane\tid\tparent\tname\tstart_ns\tend_ns\n";
  List.iter
    (fun l ->
      for i = 0 to l.nrec - 1 do
        let b = i * rec_width in
        Printf.fprintf oc "%d\t%d\t%d\t%d\t%s\t%d\t%d\n" l.recs.(b) l.lane_id
          l.recs.(b + 1) l.recs.(b + 2)
          layer_names.(l.recs.(b + 3))
          l.recs.(b + 4) l.recs.(b + 5)
      done)
    (List.rev !lanes);
  close_out oc
