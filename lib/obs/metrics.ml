(* Process-wide metrics registry. Counters and gauges are bare refs so
   hot paths pay one memory write; histograms use fixed log-scale
   buckets (5 per decade) so latency quantiles need no sample storage
   and no external dependency. *)

let buckets_per_decade = 5

(* bucket 0 covers (0, 1]; bucket i (i >= 1) covers
   (10^((i-1)/5), 10^(i/5)]. 76 buckets reach 10^15 ns ~ 11.5 days,
   beyond which observations clamp into the last bucket. *)
let nbuckets = 76

type histogram = {
  counts : int array;
  mutable count : int;
  mutable sum : float;
  mutable minv : float;
  mutable maxv : float;
}

let fresh_histogram () =
  {
    counts = Array.make nbuckets 0;
    count = 0;
    sum = 0.0;
    minv = infinity;
    maxv = neg_infinity;
  }

let bucket_index v =
  if v <= 1.0 then 0
  else
    let i =
      int_of_float (Float.ceil (float_of_int buckets_per_decade *. Float.log10 v))
    in
    if i < 0 then 0 else if i >= nbuckets then nbuckets - 1 else i

let bucket_upper i = 10.0 ** (float_of_int i /. float_of_int buckets_per_decade)

let observe h v =
  let i = bucket_index v in
  h.counts.(i) <- h.counts.(i) + 1;
  h.count <- h.count + 1;
  h.sum <- h.sum +. v;
  if v < h.minv then h.minv <- v;
  if v > h.maxv then h.maxv <- v

let observe_ns h ns = observe h (Int64.to_float ns)

(* Quantile estimate: the upper bound of the first bucket whose
   cumulative count reaches rank(q). Overestimates by at most one
   bucket width (a factor of 10^(1/5) ~ 1.58). *)
let quantile h q =
  if h.count = 0 then nan
  else if q <= 0.0 then h.minv
  else begin
    let rank =
      let r = int_of_float (Float.ceil (q *. float_of_int h.count)) in
      if r < 1 then 1 else if r > h.count then h.count else r
    in
    let i = ref 0 and cum = ref 0 in
    while !cum < rank && !i < nbuckets do
      cum := !cum + h.counts.(!i);
      incr i
    done;
    (* the loop leaves [i] one past the bucket that reached the rank *)
    let upper = bucket_upper (if !i > 0 then !i - 1 else 0) in
    (* never report beyond the observed extrema *)
    if upper > h.maxv then h.maxv else upper
  end

let mean h = if h.count = 0 then nan else h.sum /. float_of_int h.count

type metric = Counter of int ref | Gauge of float ref | Hist of histogram

(* The registry table is guarded by a mutex: get-or-create and the
   whole-table walks (reset, snapshot) may now run from the fleet
   scheduler's worker domains, and an unsynchronized Hashtbl resize
   under a concurrent probe is memory-unsafe. Only registration locks —
   updates through the returned refs stay bare writes, so concurrent
   sessions may lose increments to each other; the deterministic
   counters CI gates on live in per-run oracle stats, not here. *)
type t = { tbl : (string, metric) Hashtbl.t; lock : Mutex.t }

let create () = { tbl = Hashtbl.create 32; lock = Mutex.create () }
let default = create ()

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let kind_error name = invalid_arg ("Metrics: " ^ name ^ " registered with another kind")

let counter t name =
  locked t (fun () ->
      match Hashtbl.find_opt t.tbl name with
      | Some (Counter r) -> r
      | Some _ -> kind_error name
      | None ->
          let r = ref 0 in
          Hashtbl.add t.tbl name (Counter r);
          r)

let gauge t name =
  locked t (fun () ->
      match Hashtbl.find_opt t.tbl name with
      | Some (Gauge r) -> r
      | Some _ -> kind_error name
      | None ->
          let r = ref 0.0 in
          Hashtbl.add t.tbl name (Gauge r);
          r)

let histogram t name =
  locked t (fun () ->
      match Hashtbl.find_opt t.tbl name with
      | Some (Hist h) -> h
      | Some _ -> kind_error name
      | None ->
          let h = fresh_histogram () in
          Hashtbl.add t.tbl name (Hist h);
          h)

(* Labelled variants: the label set is folded into the registry key
   ([name{k="v",...}], keys sorted) at handle-creation time, so after
   creation a labelled metric is indistinguishable from a plain one —
   one memory write on the hot path. Exporters that need the structure
   back use [Labels.split]. *)

let counter_l t name labels = counter t (Labels.encode name labels)
let gauge_l t name labels = gauge t (Labels.encode name labels)

let inc ?(by = 1) r = r := !r + by
let set g v = g := v

(* Zero every metric in place: refs handed out earlier stay valid, so
   instrumentation sites can cache them across runs. *)
let reset t =
  locked t (fun () ->
      Hashtbl.iter
        (fun _ m ->
          match m with
          | Counter r -> r := 0
          | Gauge r -> r := 0.0
          | Hist h ->
              Array.fill h.counts 0 nbuckets 0;
              h.count <- 0;
              h.sum <- 0.0;
              h.minv <- infinity;
              h.maxv <- neg_infinity)
        t.tbl)

(* Structural snapshot for exporters (the OpenMetrics renderer): every
   metric under its registry name (labels still encoded), histograms
   with their non-empty buckets. *)

type hist_view = {
  v_count : int;
  v_sum : float;
  v_buckets : (float * int) list; (* (upper bound, count), non-empty only *)
}

type view = V_counter of int | V_gauge of float | V_hist of hist_view

let snapshot t =
  locked t @@ fun () ->
  Hashtbl.fold
    (fun name m acc ->
      let view =
        match m with
        | Counter r -> V_counter !r
        | Gauge r -> V_gauge !r
        | Hist h ->
            let buckets = ref [] in
            for i = nbuckets - 1 downto 0 do
              if h.counts.(i) > 0 then
                buckets := (bucket_upper i, h.counts.(i)) :: !buckets
            done;
            V_hist { v_count = h.count; v_sum = h.sum; v_buckets = !buckets }
      in
      (name, view) :: acc)
    t.tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let histogram_json h =
  Jsonx.Obj
    [
      ("count", Jsonx.Int h.count);
      ("sum", Jsonx.Float h.sum);
      ("min", if h.count = 0 then Jsonx.Null else Jsonx.Float h.minv);
      ("max", if h.count = 0 then Jsonx.Null else Jsonx.Float h.maxv);
      ("mean", if h.count = 0 then Jsonx.Null else Jsonx.Float (mean h));
      ("p50", if h.count = 0 then Jsonx.Null else Jsonx.Float (quantile h 0.5));
      ("p90", if h.count = 0 then Jsonx.Null else Jsonx.Float (quantile h 0.9));
      ("p99", if h.count = 0 then Jsonx.Null else Jsonx.Float (quantile h 0.99));
    ]

let to_json t =
  let sorted kind =
    locked t (fun () ->
        Hashtbl.fold
          (fun name m acc ->
            match kind name m with Some j -> (name, j) :: acc | None -> acc)
          t.tbl [])
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  let counters =
    sorted (fun _ m -> match m with Counter r -> Some (Jsonx.Int !r) | _ -> None)
  in
  let gauges =
    sorted (fun _ m -> match m with Gauge r -> Some (Jsonx.Float !r) | _ -> None)
  in
  let histograms =
    sorted (fun _ m -> match m with Hist h -> Some (histogram_json h) | _ -> None)
  in
  Jsonx.Obj
    [
      ("counters", Jsonx.Obj counters);
      ("gauges", Jsonx.Obj gauges);
      ("histograms", Jsonx.Obj histograms);
    ]

let to_json_string t = Jsonx.to_string (to_json t)

let write_file t path = Atomic_file.write ~path (to_json_string t ^ "\n")
