(* Tests for the telemetry layer: histogram buckets and quantiles,
   span nesting/ordering, JSONL sink round-trips, and the
   instrumentation contracts the learner relies on (membership-query
   counts = cache misses, TCP learn runs emit the expected spans). *)

module Jsonx = Prognosis_obs.Jsonx
module Metrics = Prognosis_obs.Metrics
module Trace = Prognosis_obs.Trace
module Clock = Prognosis_obs.Clock
module Labels = Prognosis_obs.Labels
module Ring = Prognosis_obs.Ring
module Openmetrics = Prognosis_obs.Openmetrics
module Span_tree = Prognosis_obs.Span_tree
module Report_diff = Prognosis_obs.Report_diff
module Mealy = Prognosis_automata.Mealy
module Sul = Prognosis_sul.Sul
module Nondet = Prognosis_sul.Nondet
module Oracle = Prognosis_learner.Oracle
module Cache = Prognosis_learner.Cache
module Learn = Prognosis_learner.Learn
open Prognosis

(* A deterministic clock: each call advances 1000 ns. *)
let install_tick_clock () =
  let t = ref 0L in
  Clock.set_source (fun () ->
      t := Int64.add !t 1000L;
      !t)

let is_meta r = Jsonx.member "type" r = Some (Jsonx.String "meta")

(* span/event records only — the versioned meta header every stream
   opens with is dropped (meta_header_emitted tests it explicitly) *)
let with_memory_trace f =
  let sink, records = Trace.Sink.memory () in
  Trace.set_sink sink;
  Fun.protect ~finally:Trace.unset_sink (fun () ->
      let v = f () in
      (v, List.filter (fun r -> not (is_meta r)) (records ())))

(* --- jsonx --- *)

let jsonx_roundtrip () =
  let v =
    Jsonx.Obj
      [
        ("s", Jsonx.String "a\"b\\c\nd\ttab\x01e");
        ("i", Jsonx.Int (-42));
        ("f", Jsonx.Float 1.5);
        ("whole", Jsonx.Float 3.0);
        ("b", Jsonx.Bool true);
        ("n", Jsonx.Null);
        ("l", Jsonx.List [ Jsonx.Int 1; Jsonx.Obj []; Jsonx.List [] ]);
      ]
  in
  Alcotest.(check bool) "roundtrip" true (Jsonx.of_string (Jsonx.to_string v) = v);
  Alcotest.(check bool) "ws tolerated" true
    (Jsonx.of_string " { \"a\" : [ 1 , 2 ] } "
    = Jsonx.Obj [ ("a", Jsonx.List [ Jsonx.Int 1; Jsonx.Int 2 ]) ]);
  Alcotest.(check bool) "garbage rejected" true
    (Jsonx.of_string_opt "{\"a\":}" = None);
  Alcotest.(check bool) "trailing rejected" true (Jsonx.of_string_opt "1 2" = None)

(* --- metrics --- *)

let histogram_buckets () =
  (* bucket 0 is (0,1]; bucket i is (10^((i-1)/5), 10^(i/5)] *)
  Alcotest.(check int) "0.5 -> 0" 0 (Metrics.bucket_index 0.5);
  Alcotest.(check int) "1.0 -> 0" 0 (Metrics.bucket_index 1.0);
  Alcotest.(check int) "1.1 -> 1" 1 (Metrics.bucket_index 1.1);
  Alcotest.(check int) "10 -> 5" 5 (Metrics.bucket_index 10.0);
  Alcotest.(check int) "11 -> 6" 6 (Metrics.bucket_index 11.0);
  Alcotest.(check int) "1e6 -> 30" 30 (Metrics.bucket_index 1e6);
  Alcotest.(check int) "huge clamps" (Metrics.bucket_index 1e300)
    (Metrics.bucket_index 1e200);
  Alcotest.(check (float 1e-9) "upper of 5 is 10" 10.0 (Metrics.bucket_upper 5))

let histogram_quantiles () =
  let r = Metrics.create () in
  let h = Metrics.histogram r "q" in
  (* 100 observations: 1..100 *)
  for v = 1 to 100 do
    Metrics.observe h (float_of_int v)
  done;
  (* p50: rank 50; buckets up to 10^(i/5); the bucket holding the 50th
     smallest value (50) has upper bound 10^(9/5) ~ 63.1 *)
  let p50 = Metrics.quantile h 0.5 in
  Alcotest.(check bool)
    (Printf.sprintf "p50 %.1f in [50, 63.2]" p50)
    true
    (p50 >= 50.0 && p50 <= 63.2);
  let p99 = Metrics.quantile h 0.99 in
  Alcotest.(check bool)
    (Printf.sprintf "p99 %.1f in [99, 100]" p99)
    true
    (p99 >= 99.0 && p99 <= 100.0);
  Alcotest.(check (float 1e-9) "p0 is min" 1.0 (Metrics.quantile h 0.0));
  Alcotest.(check (float 1e-9) "mean" 50.5 (Metrics.mean h));
  (* quantiles never exceed the observed max *)
  Alcotest.(check bool) "p100 <= max" true (Metrics.quantile h 1.0 <= 100.0);
  let empty = Metrics.histogram r "empty" in
  Alcotest.(check bool) "empty is nan" true (Float.is_nan (Metrics.quantile empty 0.5))

let metrics_registry () =
  let r = Metrics.create () in
  let c = Metrics.counter r "c" in
  let g = Metrics.gauge r "g" in
  Metrics.inc c;
  Metrics.inc ~by:4 c;
  Metrics.set g 2.5;
  Alcotest.(check int) "counter" 5 !c;
  (* get-or-create returns the same ref *)
  Metrics.inc (Metrics.counter r "c");
  Alcotest.(check int) "shared ref" 6 !c;
  (match Metrics.counter r "g" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "kind clash must be refused");
  let json = Metrics.to_json r in
  Alcotest.(check bool) "counter in json" true
    (Jsonx.member "counters" json
    |> Option.map (Jsonx.member "c")
    |> Option.join = Some (Jsonx.Int 6));
  (* reset zeroes in place: old refs stay valid *)
  Metrics.reset r;
  Alcotest.(check int) "reset" 0 !c;
  Metrics.inc c;
  Alcotest.(check int) "ref alive after reset" 1 !c

(* --- trace --- *)

let field name j =
  match Jsonx.member name j with
  | Some v -> v
  | None -> Alcotest.fail ("missing field " ^ name)

let str name j =
  match Jsonx.to_string_opt (field name j) with
  | Some s -> s
  | None -> Alcotest.fail (name ^ " not a string")

let num name j =
  match Jsonx.to_int_opt (field name j) with
  | Some n -> n
  | None -> Alcotest.fail (name ^ " not an int")

let span_nesting_and_ordering () =
  install_tick_clock ();
  let (), records =
    with_memory_trace (fun () ->
        Trace.with_span "outer" (fun () ->
            Trace.with_span "first" (fun () -> Trace.event "ping");
            Trace.with_span ~attrs:[ ("k", Jsonx.Int 7) ] "second" ignore))
  in
  Clock.use_wall_clock ();
  (* close order: first's ping is an event (emitted immediately), then
     first closes, then second, then outer *)
  let names = List.map (str "name") records in
  Alcotest.(check (list string)) "emission order"
    [ "ping"; "first"; "second"; "outer" ] names;
  let by_name n = List.find (fun r -> str "name" r = n) records in
  let outer = by_name "outer" in
  let first = by_name "first" in
  let second = by_name "second" in
  let ping = by_name "ping" in
  Alcotest.(check bool) "outer is root" true (field "parent" outer = Jsonx.Null);
  Alcotest.(check int) "first nested in outer" (num "id" outer) (num "parent" first);
  Alcotest.(check int) "second nested in outer" (num "id" outer) (num "parent" second);
  Alcotest.(check int) "ping nested in first" (num "id" first) (num "parent" ping);
  (* ids are allocated in creation order *)
  Alcotest.(check bool) "creation order" true
    (num "id" outer < num "id" first
    && num "id" first < num "id" ping
    && num "id" ping < num "id" second);
  (* timing: monotonic tick clock => strictly positive, nested durations *)
  Alcotest.(check bool) "outer spans children" true
    (num "start_ns" outer < num "start_ns" first
    && num "end_ns" first <= num "end_ns" outer);
  Alcotest.(check bool) "durations positive" true
    (num "dur_ns" outer > 0 && num "dur_ns" first > 0);
  Alcotest.(check bool) "attr kept" true
    (Jsonx.member "attrs" second
    |> Option.map (Jsonx.member "k")
    |> Option.join = Some (Jsonx.Int 7))

let span_error_attr () =
  let (), records =
    with_memory_trace (fun () ->
        try Trace.with_span "boom" (fun () -> failwith "kaput")
        with Failure _ -> ())
  in
  match records with
  | [ r ] ->
      Alcotest.(check string) "span name" "boom" (str "name" r);
      let err =
        Jsonx.member "attrs" r |> Option.map (Jsonx.member "error") |> Option.join
      in
      Alcotest.(check bool) "error recorded" true
        (match err with Some (Jsonx.String s) -> s <> "" | _ -> false)
  | _ -> Alcotest.fail "expected exactly one record"

let jsonl_sink_roundtrip () =
  let path = Filename.temp_file "prognosis_trace" ".jsonl" in
  Trace.set_sink (Trace.Sink.jsonl_file path);
  Trace.with_span ~attrs:[ ("proto", Jsonx.String "tcp") ] "a" (fun () ->
      Trace.event ~attrs:[ ("bytes", Jsonx.Int 40) ] "net.loss");
  Trace.unset_sink ();
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  close_in ic;
  Sys.remove path;
  let lines = List.rev !lines in
  Alcotest.(check int) "meta + two records" 3 (List.length lines);
  let parsed = List.map Jsonx.of_string lines in
  Alcotest.(check (list string)) "types" [ "meta"; "event"; "span" ]
    (List.map (str "type") parsed);
  Alcotest.(check string) "stream is versioned" "prognosis.trace/1"
    (str "schema" (List.hd parsed));
  Alcotest.(check (list string)) "names" [ "net.loss"; "a" ]
    (List.map (str "name") (List.tl parsed));
  Alcotest.(check bool) "attr roundtrip" true
    (Jsonx.member "attrs" (List.nth parsed 1)
    |> Option.map (Jsonx.member "bytes")
    |> Option.join = Some (Jsonx.Int 40))

let meta_header_emitted () =
  let sink, records = Trace.Sink.memory () in
  Trace.set_sink sink;
  Trace.unset_sink ();
  match records () with
  | [ m ] ->
      Alcotest.(check string) "type" "meta" (str "type" m);
      Alcotest.(check string) "schema" "prognosis.trace/1" (str "schema" m);
      Alcotest.(check string) "clock" "monotonic_ns" (str "clock" m)
  | l -> Alcotest.fail (Printf.sprintf "expected 1 meta record, got %d" (List.length l))

(* With no sink installed, instrumentation must stay one branch per
   call site: in particular the clock is never read. The counting
   source makes that observable. *)
let no_sink_fast_path () =
  Trace.unset_sink ();
  let calls = ref 0 in
  Clock.set_source (fun () ->
      incr calls;
      Int64.of_int (!calls * 1000));
  let baseline = !calls in
  Trace.with_span "s" (fun () ->
      Trace.event "e";
      Trace.add_attr "k" (Jsonx.Int 1));
  Alcotest.(check int) "no clock reads without a sink" baseline !calls;
  let sink, _ = Trace.Sink.memory () in
  Trace.set_sink sink;
  Trace.with_span "s" (fun () -> Trace.event "e");
  Trace.unset_sink ();
  Alcotest.(check bool) "clock read once a sink is installed" true
    (!calls > baseline);
  Clock.use_wall_clock ()

(* --- labels --- *)

let labels_roundtrip () =
  let enc = Labels.encode "exec.worker.runs" [ ("worker", "3") ] in
  Alcotest.(check string) "encoded" "exec.worker.runs{worker=\"3\"}" enc;
  Alcotest.(check bool) "split inverse" true
    (Labels.split enc = ("exec.worker.runs", [ ("worker", "3") ]));
  Alcotest.(check string) "keys sorted"
    (Labels.encode "m" [ ("a", "1"); ("b", "2") ])
    (Labels.encode "m" [ ("b", "2"); ("a", "1") ]);
  let tricky = "a\\b\"c\nd" in
  let enc = Labels.encode "m" [ ("k", tricky) ] in
  Alcotest.(check bool) "escape roundtrip" true
    (Labels.split enc = ("m", [ ("k", tricky) ]));
  Alcotest.(check string) "no labels" "plain" (Labels.encode "plain" []);
  Alcotest.(check bool) "plain splits" true (Labels.split "plain" = ("plain", []));
  match Labels.split "m{k=}" with
  | exception Labels.Malformed _ -> ()
  | _ -> Alcotest.fail "malformed label block must raise"

let labelled_metrics () =
  let r = Metrics.create () in
  let c0 = Metrics.counter_l r "exec.worker.runs" [ ("worker", "0") ] in
  let c1 = Metrics.counter_l r "exec.worker.runs" [ ("worker", "1") ] in
  Metrics.inc ~by:3 c0;
  Metrics.inc c1;
  (* same name + labels -> same ref *)
  Metrics.inc (Metrics.counter_l r "exec.worker.runs" [ ("worker", "0") ]);
  Alcotest.(check int) "shared labelled ref" 4 !c0;
  let counters = field "counters" (Metrics.to_json r) in
  Alcotest.(check bool) "labelled counter in json" true
    (Jsonx.member "exec.worker.runs{worker=\"0\"}" counters = Some (Jsonx.Int 4));
  match Metrics.snapshot r with
  | [ (n0, Metrics.V_counter 4); (n1, Metrics.V_counter 1) ] ->
      Alcotest.(check string) "first" "exec.worker.runs{worker=\"0\"}" n0;
      Alcotest.(check string) "second" "exec.worker.runs{worker=\"1\"}" n1
  | _ -> Alcotest.fail "unexpected snapshot shape"

(* --- openmetrics --- *)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec at i = i + n <= m && (String.sub s i n = sub || at (i + 1)) in
  n = 0 || at 0

let count_substring ~sub s =
  let n = String.length sub in
  let rec go i acc =
    if i + n > String.length s then acc
    else if String.sub s i n = sub then go (i + 1) (acc + 1)
    else go (i + 1) acc
  in
  go 0 0

let openmetrics_rendering () =
  let r = Metrics.create () in
  Metrics.inc ~by:5 (Metrics.counter_l r "exec.worker.runs" [ ("worker", "0") ]);
  Metrics.inc ~by:7 (Metrics.counter_l r "exec.worker.runs" [ ("worker", "1") ]);
  Metrics.set (Metrics.gauge r "exec.workers") 2.0;
  let h = Metrics.histogram r "oracle.mq_latency_ns" in
  Metrics.observe h 5.0;
  Metrics.observe h 500.0;
  let text = Openmetrics.render r in
  Alcotest.(check string) "name mangling" "prognosis_exec_worker_runs"
    (Openmetrics.metric_name "exec.worker.runs");
  Alcotest.(check int) "one TYPE line per family" 1
    (count_substring ~sub:"# TYPE prognosis_exec_worker_runs counter" text);
  Alcotest.(check bool) "labelled counter sample" true
    (contains ~sub:"prognosis_exec_worker_runs_total{worker=\"0\"} 5" text);
  Alcotest.(check bool) "second label set" true
    (contains ~sub:"prognosis_exec_worker_runs_total{worker=\"1\"} 7" text);
  Alcotest.(check bool) "gauge sample" true
    (contains ~sub:"prognosis_exec_workers 2" text);
  Alcotest.(check bool) "histogram type" true
    (contains ~sub:"# TYPE prognosis_oracle_mq_latency_ns histogram" text);
  Alcotest.(check bool) "inf bucket cumulative" true
    (contains ~sub:"prognosis_oracle_mq_latency_ns_bucket{le=\"+Inf\"} 2" text);
  Alcotest.(check bool) "histogram sum" true
    (contains ~sub:"prognosis_oracle_mq_latency_ns_sum 505" text);
  Alcotest.(check bool) "histogram count" true
    (contains ~sub:"prognosis_oracle_mq_latency_ns_count 2" text);
  let n = String.length text in
  Alcotest.(check string) "EOF terminator" "# EOF\n"
    (String.sub text (n - 6) 6)

(* --- flight recorder ring --- *)

let mk_event name =
  Jsonx.Obj [ ("type", Jsonx.String "event"); ("name", Jsonx.String name) ]

let ring_bounds () =
  let ring = Ring.create ~capacity:4 () in
  let sink = Ring.sink ring in
  for i = 1 to 10 do
    sink.Trace.emit (mk_event (string_of_int i))
  done;
  Alcotest.(check int) "capacity" 4 (Ring.capacity ring);
  Alcotest.(check int) "dropped" 6 (Ring.dropped ring);
  Alcotest.(check (list string)) "last four, oldest first"
    [ "7"; "8"; "9"; "10" ]
    (List.map (str "name") (Ring.records ring));
  (* stream meta headers are not buffered *)
  sink.Trace.emit (Trace.meta_record ());
  Alcotest.(check int) "meta not buffered" 4 (List.length (Ring.records ring))

let ring_dump_is_parseable () =
  install_tick_clock ();
  let ring = Ring.create ~capacity:8 () in
  Trace.set_sink (Ring.sink ring);
  for _ = 1 to 20 do
    Trace.with_span "learner.round" ignore
  done;
  Trace.unset_sink ();
  Clock.use_wall_clock ();
  let path = Filename.temp_file "prognosis_flight" ".jsonl" in
  Ring.dump ring ~path;
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  close_in ic;
  Sys.remove path;
  let parsed = List.rev_map Jsonx.of_string !lines in
  (match parsed with
  | meta :: rest ->
      Alcotest.(check string) "flight meta schema" "prognosis.trace/1"
        (str "schema" meta);
      Alcotest.(check bool) "flight flag" true
        (Jsonx.member "flight" meta = Some (Jsonx.Bool true));
      Alcotest.(check int) "capacity recorded" 8 (num "capacity" meta);
      Alcotest.(check int) "dropped recorded" 12 (num "dropped" meta);
      Alcotest.(check int) "ring bound respected" 8 (List.length rest);
      List.iter
        (fun r ->
          Alcotest.(check string) "span kept" "learner.round" (str "name" r))
        rest
  | [] -> Alcotest.fail "empty flight dump");
  (* dumping is atomic: no .tmp litter *)
  Alcotest.(check bool) "no temp litter" false (Sys.file_exists (path ^ ".tmp"))

(* --- span tree --- *)

let span_tree_analysis () =
  install_tick_clock ();
  let (), records =
    with_memory_trace (fun () ->
        Trace.with_span "learn" (fun () ->
            Trace.with_span
              ~attrs:[ ("phase", Jsonx.String "learning") ]
              "learner.round"
              (fun () ->
                Trace.with_span ~attrs:[ ("len", Jsonx.Int 3) ] "oracle.mq"
                  ignore;
                Trace.with_span ~attrs:[ ("len", Jsonx.Int 5) ] "oracle.mq"
                  (fun () -> Trace.event "ping");
                Trace.with_span
                  ~attrs:[ ("phase", Jsonx.String "eq-oracle") ]
                  "learner.eq_query" ignore)))
  in
  Clock.use_wall_clock ();
  let module T = Span_tree in
  match T.of_records records with
  | [ root ] ->
      Alcotest.(check string) "root" "learn" root.T.name;
      Alcotest.(check int) "five spans" 5 (List.length (T.spans [ root ]));
      (* critical path descends through the round *)
      let path_names = List.map (fun n -> n.T.name) (T.critical_path root) in
      Alcotest.(check bool) "path starts learn -> learner.round" true
        (match path_names with
        | "learn" :: "learner.round" :: _ -> true
        | _ -> false);
      (* the mq containing the event ran longer (one extra clock read) *)
      (match T.top_slowest ~name:"oracle.mq" ~k:1 [ root ] with
      | [ slow ] ->
          Alcotest.(check bool) "slowest mq is the len=5 one" true
            (List.assoc_opt "len" slow.T.attrs = Some (Jsonx.Int 5))
      | _ -> Alcotest.fail "expected one slowest span");
      (* phases: eq-oracle time must not double-count inside learning *)
      let phases = T.phase_breakdown [ root ] in
      let get p = Option.value ~default:(-1) (List.assoc_opt p phases) in
      Alcotest.(check bool) "both phases present" true
        (get "learning" > 0 && get "eq-oracle" > 0);
      let round =
        List.find (fun n -> n.T.name = "learner.round") (T.spans [ root ])
      in
      Alcotest.(check int) "learning excludes eq-oracle"
        (round.T.dur_ns - get "eq-oracle")
        (get "learning");
      (* aggregated rendering collapses the two mq spans *)
      let rendered = T.render_tree [ root ] in
      Alcotest.(check bool) "mq aggregated" true
        (contains ~sub:"oracle.mq  x2" rendered)
  | l -> Alcotest.fail (Printf.sprintf "expected 1 root, got %d" (List.length l))

let span_tree_orphans_become_roots () =
  (* a crashed run: children written, parent span never closed *)
  let records =
    [
      Jsonx.Obj
        [
          ("type", Jsonx.String "span");
          ("name", Jsonx.String "oracle.mq");
          ("id", Jsonx.Int 2);
          ("parent", Jsonx.Int 1);
          ("start_ns", Jsonx.Int 0);
          ("end_ns", Jsonx.Int 10);
          ("dur_ns", Jsonx.Int 10);
          ("attrs", Jsonx.Null);
        ];
    ]
  in
  match Span_tree.of_records records with
  | [ r ] -> Alcotest.(check string) "orphan is a root" "oracle.mq" r.Span_tree.name
  | _ -> Alcotest.fail "expected the orphan as root"

(* --- report diff --- *)

let report_diff_gate () =
  let a =
    Jsonx.of_string
      {|{"reports":[{"subject":"tcp","algorithm":"ttt","membership_queries":100,"states":6}],"benchmarks_ns_per_run":{"E1_learn":1000.0},"exec":{"baseline_resets":50}}|}
  in
  let b =
    Jsonx.of_string
      {|{"reports":[{"subject":"tcp","algorithm":"ttt","membership_queries":120,"states":6}],"benchmarks_ns_per_run":{"E1_learn":1200.0},"exec":{"baseline_resets":500}}|}
  in
  let module D = Report_diff in
  Alcotest.(check bool) "subject keying" true
    (List.mem_assoc "reports.tcp:ttt.membership_queries" (D.flatten a));
  let deltas = D.diff a b in
  let changed = List.filter D.changed deltas in
  Alcotest.(check int) "three changed paths" 3 (List.length changed);
  (* default 10% gate catches the 20% growths, ignores baseline echoes *)
  let regs = D.regressions deltas in
  Alcotest.(check (list string)) "regressed paths"
    [ "benchmarks_ns_per_run.E1_learn"; "reports.tcp:ttt.membership_queries" ]
    (List.map (fun d -> d.D.path) regs);
  (* a looser threshold passes *)
  Alcotest.(check int) "25% threshold passes" 0
    (List.length (D.regressions ~threshold:0.25 deltas));
  (* identical reports: no deltas, no regressions *)
  let self = D.diff a a in
  Alcotest.(check int) "self-diff unchanged" 0
    (List.length (List.filter D.changed self));
  Alcotest.(check int) "self-diff gate" 0 (List.length (D.regressions self));
  (* improvement is not a regression *)
  Alcotest.(check int) "improvement ok" 0
    (List.length (D.regressions (D.diff b a) |> List.filter (fun d -> d.D.path <> "exec.baseline_resets")));
  Alcotest.(check bool) "watch excludes states" false (D.default_watch "reports.tcp:ttt.states");
  Alcotest.(check bool) "watch excludes baseline" false
    (D.default_watch "exec.baseline_resets")

(* --- jsonx properties --- *)

let gen_jsonx =
  let open QCheck2.Gen in
  (* dyadic floats round-trip exactly through %.17g *)
  let leaf =
    oneof
      [
        return Jsonx.Null;
        map (fun b -> Jsonx.Bool b) bool;
        map (fun n -> Jsonx.Int n) int;
        map (fun i -> Jsonx.Float (float_of_int i /. 16.0)) int;
        map (fun s -> Jsonx.String s) (string_size ~gen:printable (int_bound 10));
      ]
  in
  let key = string_size ~gen:printable (int_bound 6) in
  sized
  @@ fix (fun self n ->
         if n = 0 then leaf
         else
           oneof
             [
               leaf;
               map (fun l -> Jsonx.List l) (list_size (int_bound 4) (self (n / 2)));
               map
                 (fun l -> Jsonx.Obj l)
                 (list_size (int_bound 4) (pair key (self (n / 2))));
             ])

let prop_jsonx_roundtrip =
  QCheck2.Test.make ~count:300 ~name:"jsonx roundtrip" ~print:Jsonx.to_string
    gen_jsonx (fun v -> Jsonx.of_string (Jsonx.to_string v) = v)

let jsonx_rejects_deep_nesting () =
  let deep = String.make 2000 '[' ^ String.make 2000 ']' in
  Alcotest.(check bool) "2000 levels rejected" true
    (Jsonx.of_string_opt deep = None);
  let shallow = String.make 100 '[' ^ String.make 100 ']' in
  Alcotest.(check bool) "100 levels accepted" true
    (Jsonx.of_string_opt shallow <> None)

let jsonx_escape_edges () =
  let s = "\x00\x01\x1f \" \\ / \n\r\t\b\x0c" in
  Alcotest.(check bool) "control chars roundtrip" true
    (Jsonx.of_string (Jsonx.to_string (Jsonx.String s)) = Jsonx.String s);
  Alcotest.(check bool) "unicode escape decodes to UTF-8" true
    (Jsonx.of_string "\"\\u00e9\"" = Jsonx.String "\xc3\xa9");
  Alcotest.(check bool) "bad escape rejected" true
    (Jsonx.of_string_opt "\"\\x\"" = None);
  Alcotest.(check bool) "truncated unicode rejected" true
    (Jsonx.of_string_opt "\"\\u00" = None);
  Alcotest.(check bool) "unterminated rejected" true
    (Jsonx.of_string_opt "\"abc" = None)

(* --- instrumentation contracts --- *)

let tcp_learn_emits_expected_spans () =
  let (), records =
    with_memory_trace (fun () -> ignore (Tcp_study.learn ~seed:5L ()))
  in
  let names = List.sort_uniq compare (List.map (str "name") records) in
  List.iter
    (fun expected ->
      Alcotest.(check bool) ("span " ^ expected) true (List.mem expected names))
    [ "learn"; "learner.round"; "learner.hypothesis"; "learner.eq_query";
      "learner.refine"; "oracle.mq" ];
  (* the learn span is the root and closes last *)
  let last = List.nth records (List.length records - 1) in
  Alcotest.(check string) "root closes last" "learn" (str "name" last);
  Alcotest.(check bool) "root has no parent" true (field "parent" last = Jsonx.Null);
  (* every oracle.mq span has a positive length attribute *)
  List.iter
    (fun r ->
      if str "name" r = "oracle.mq" then
        match
          Jsonx.member "attrs" r |> Option.map (Jsonx.member "len") |> Option.join
        with
        | Some (Jsonx.Int n) -> Alcotest.(check bool) "len > 0" true (n > 0)
        | _ -> Alcotest.fail "oracle.mq without len attr")
    records

let lossy_learning_emits_fault_events () =
  let (), records =
    with_memory_trace (fun () ->
        let sul =
          Prognosis_tcp.Tcp_adapter.sul
            ~network:(Prognosis_sul.Network.lossy 0.3) ~seed:7L ()
        in
        (* raw queries suffice; learning to completion is not the point *)
        for _ = 1 to 50 do
          ignore (Sul.query sul Prognosis_tcp.Tcp_alphabet.[ Syn; Ack; Fin_ack ])
        done)
  in
  let losses = List.filter (fun r -> str "name" r = "net.loss") records in
  Alcotest.(check bool) "some loss events" true (List.length losses > 0);
  List.iter
    (fun r ->
      Alcotest.(check string) "loss is an event" "event" (str "type" r);
      let attr k =
        Jsonx.member "attrs" r |> Option.map (Jsonx.member k) |> Option.join
      in
      (match attr "bytes" with
      | Some (Jsonx.Int n) -> Alcotest.(check bool) "bytes > 0" true (n > 0)
      | _ -> Alcotest.fail "loss without byte count");
      Alcotest.(check bool) "seed recorded" true
        (attr "seed" = Some (Jsonx.Int 7)))
    losses

(* Satellite: membership_queries must count only queries that reached
   the SUL, also when the oracle is wrapped by both the nondeterminism
   check and the cache. *)
let no_double_count_with_cache_and_nondet () =
  let machine =
    (* a 2-state toggle machine as deterministic SUL *)
    Mealy.make ~size:2 ~initial:0 ~inputs:[| 'a'; 'b' |]
      ~delta:[| [| 1; 0 |]; [| 0; 1 |] |]
      ~lambda:[| [| 'x'; 'y' |]; [| 'z'; 'y' |] |]
  in
  let sul, counts = Sul.counting (Sul.of_mealy machine) in
  let min_runs = 3 in
  let checked =
    Oracle.of_sul_checked
      ~config:{ Nondet.default with Nondet.min_runs }
      ~pp:(fun w -> String.init (List.length w) (List.nth w))
      sul
  in
  let cache = Cache.create () in
  let mq = Cache.wrap cache checked in
  let result =
    Learn.run_mq ~inputs:[| 'a'; 'b' |] ~mq
      ~eq:(Prognosis_learner.Eq_oracle.w_method ~extra_states:1 ())
      ()
  in
  Alcotest.(check int) "learned the toggle" 2 (Mealy.size result.Learn.model);
  let stats = result.Learn.stats in
  Alcotest.(check bool) "some queries" true (stats.Oracle.membership_queries > 0);
  Alcotest.(check int) "only SUL-reaching queries counted"
    (Cache.misses cache) stats.Oracle.membership_queries;
  (* the nondeterminism check ran each SUL-reaching query exactly
     min_runs times (deterministic SUL => no retries) *)
  let resets, _steps = counts () in
  Alcotest.(check int) "SUL executions = min_runs * misses"
    (min_runs * Cache.misses cache)
    resets

let learn_run_asserts_cache_consistency () =
  (* Pipeline.learn's queries = misses check must hold on a full study
     run. *)
  let r = Tcp_study.learn ~seed:11L () in
  Alcotest.(check int) "report: queries = misses"
    r.Tcp_study.report.Report.cache_misses
    r.Tcp_study.report.Report.membership_queries;
  Alcotest.(check bool) "hit rate in (0,1)" true
    (let rate = Report.cache_hit_rate r.Tcp_study.report in
     rate > 0.0 && rate < 1.0)

let report_json_folds_metrics () =
  Metrics.reset Metrics.default;
  let r = Tcp_study.learn ~seed:5L () in
  let json = Report.to_json ~metrics:Metrics.default r.Tcp_study.report in
  let reparsed = Jsonx.of_string (Jsonx.to_string json) in
  Alcotest.(check string) "schema" "prognosis.report/1" (str "schema" reparsed);
  Alcotest.(check int) "states" r.Tcp_study.report.Report.states
    (num "states" reparsed);
  let metrics = field "metrics" reparsed in
  let latency =
    Jsonx.member "histograms" metrics
    |> Option.map (Jsonx.member "oracle.mq_latency_ns")
    |> Option.join
  in
  (match latency with
  | Some h ->
      (match Jsonx.member "p99" h with
      | Some (Jsonx.Float p99) ->
          Alcotest.(check bool) "p99 > 0" true (p99 > 0.0)
      | _ -> Alcotest.fail "no p99 quantile")
  | None -> Alcotest.fail "no mq latency histogram");
  match
    Jsonx.member "counters" metrics
    |> Option.map (Jsonx.member "cache.hits")
    |> Option.join
  with
  | Some (Jsonx.Int hits) ->
      Alcotest.(check int) "cache.hits counter matches report"
        r.Tcp_study.report.Report.cache_hits hits
  | _ -> Alcotest.fail "no cache.hits counter"

let () =
  Alcotest.run "obs"
    [
      ( "jsonx",
        [
          Alcotest.test_case "roundtrip" `Quick jsonx_roundtrip;
          QCheck_alcotest.to_alcotest prop_jsonx_roundtrip;
          Alcotest.test_case "deep nesting rejected" `Quick
            jsonx_rejects_deep_nesting;
          Alcotest.test_case "escape edges" `Quick jsonx_escape_edges;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "buckets" `Quick histogram_buckets;
          Alcotest.test_case "quantiles" `Quick histogram_quantiles;
          Alcotest.test_case "registry" `Quick metrics_registry;
          Alcotest.test_case "labels roundtrip" `Quick labels_roundtrip;
          Alcotest.test_case "labelled metrics" `Quick labelled_metrics;
          Alcotest.test_case "openmetrics" `Quick openmetrics_rendering;
        ] );
      ( "trace",
        [
          Alcotest.test_case "nesting and ordering" `Quick span_nesting_and_ordering;
          Alcotest.test_case "error attr" `Quick span_error_attr;
          Alcotest.test_case "jsonl roundtrip" `Quick jsonl_sink_roundtrip;
          Alcotest.test_case "meta header" `Quick meta_header_emitted;
          Alcotest.test_case "no-sink fast path" `Quick no_sink_fast_path;
        ] );
      ( "flight",
        [
          Alcotest.test_case "ring bounds" `Quick ring_bounds;
          Alcotest.test_case "dump parseable" `Quick ring_dump_is_parseable;
        ] );
      ( "analysis",
        [
          Alcotest.test_case "span tree" `Quick span_tree_analysis;
          Alcotest.test_case "orphan roots" `Quick span_tree_orphans_become_roots;
          Alcotest.test_case "report diff gate" `Quick report_diff_gate;
        ] );
      ( "instrumentation",
        [
          Alcotest.test_case "tcp learn spans" `Slow tcp_learn_emits_expected_spans;
          Alcotest.test_case "fault events" `Quick lossy_learning_emits_fault_events;
          Alcotest.test_case "no double count" `Quick
            no_double_count_with_cache_and_nondet;
          Alcotest.test_case "cache consistency" `Slow
            learn_run_asserts_cache_consistency;
          Alcotest.test_case "report json" `Slow report_json_folds_metrics;
        ] );
    ]
