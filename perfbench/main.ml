(* perfbench: the repository benchmark.

     perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]

   Sets the workload up several times (the median is setup_s), then
   runs its op in a closed loop for S seconds and checks every op's
   output. With --trace 0 it prints the end-to-end metrics; with
   --trace 1 it spends half the time untraced and half traced and
   prints the per-layer ledger. Times are scaled to the machine's
   reference speed (see calib.ml). The last stdout line is one JSON
   object: {"correct", "attempted", "failed", "metrics"}. See README.md. *)

module W = Workloads

let setups = 3
let warmup_ops = 10
let default_seed = 1
let default_seconds = 10.0
let out_dir = Filename.concat "perfbench" "out"

(* --- statistics --- *)

let median xs =
  match List.sort compare xs with
  | [] -> nan
  | s ->
      let a = Array.of_list s and n = List.length s in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* The highest percentile with at least ten samples beyond it: the
   11th-largest sample, at percentile 100 * (n - 10) / n. *)
let tail xs =
  let a = Array.of_list (List.sort compare xs) and n = List.length xs in
  let beyond = min 10 (n - 1) in
  (a.(n - 1 - beyond), 100.0 *. float_of_int (n - beyond) /. float_of_int n, n, beyond)

let ms ns = ns /. 1e6

(* --- the measured loop --- *)

type sample = {
  op : W.op;
  t : Calib.timing;
  ledger : Ledger.totals option;  (** this op's spans, traced ops only *)
}

type run = {
  samples : sample list;  (** successful ops, in order *)
  attempted : int;
  failed : int;
}

let counters (op : W.op) = List.map (fun (l : W.learned) -> l.W.counters) op.W.learned

let loop ?(traced = false) ~seconds ~reference step =
  let stop = Ledger.now () + int_of_float (seconds *. 1e9) in
  let rec go acc attempted failed =
    if Ledger.now () >= stop && attempted > 0 then
      { samples = List.rev acc; attempted; failed }
    else
      match Calib.timed step with
      | op, t -> (
          let ledger =
            if traced then begin
              let totals = Ledger.totals () in
              Ledger.reset ();
              Some totals
            end
            else None
          in
          match reference with
          | Some r when counters op <> r ->
              prerr_endline "op failed: exact counters differ from the warm-up op";
              go acc (attempted + 1) (failed + 1)
          | _ -> go ({ op; t; ledger } :: acc) (attempted + 1) failed)
      | exception e ->
          prerr_endline ("op failed: " ^ Printexc.to_string e);
          if traced then Ledger.reset ();
          go acc (attempted + 1) (failed + 1)
  in
  go [] 0 0

let op_ms (r : run) = List.map (fun s -> ms s.t.Calib.scaled_ns) r.samples

(* --- reporting --- *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let print_result ~attempted ~failed metrics =
  List.iter
    (fun x -> Printf.printf "%-28s %s %s\n" x.name (json_number x.value) x.unit_)
    metrics;
  let body =
    String.concat ", "
      (List.map
         (fun x ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name
             (json_number x.value) x.unit_)
         metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (failed = 0) attempted failed body

let learn_ms (r : run) label =
  median
    (List.concat_map
       (fun s ->
         List.filter_map
           (fun (l : W.learned) ->
             if l.W.label = label then
               Some (ms (float_of_int l.W.ns *. s.t.Calib.factor))
             else None)
           s.op.W.learned)
       r.samples)

let end_to_end (r : run) ~setup_s =
  let tail_ms, pct, n, beyond = tail (op_ms r) in
  Printf.printf "op_ms_tail is p%.2f of %d ops (%d beyond it)\n" pct n beyond;
  Printf.printf "error_rate %d/%d\n" r.failed r.attempted;
  Printf.printf "raw op_ms %.3f, reference chunk %.4f ms (medians)\n"
    (ms (median (List.map (fun s -> float_of_int s.t.Calib.raw_ns) r.samples)))
    (ms (median (List.map float_of_int !Calib.references)));
  let counter f =
    median (List.map (fun s -> float_of_int (f s.op.W.total)) r.samples)
  in
  let top_heap = (Gc.quick_stat ()).Gc.top_heap_words in
  [
    m "op_ms" "ms" (median (op_ms r));
    m "op_ms_tail" "ms" tail_ms;
    m "learn_ms.tcp" "ms" (learn_ms r "tcp");
    m "learn_ms.quic" "ms" (learn_ms r "quic");
    m "learn_ms.dtls" "ms" (learn_ms r "dtls");
    m "sessions_per_s" "1/s"
      (median
         (List.map
            (fun s -> float_of_int s.op.W.sessions /. (s.t.Calib.scaled_ns /. 1e9))
            r.samples));
    m "membership_queries" "count" (counter (fun c -> c.W.mq));
    m "membership_symbols" "count" (counter (fun c -> c.W.sym));
    m "test_words" "count" (counter (fun c -> c.W.tw));
    m "peak_heap_mb" "MB" (float_of_int (top_heap * (Sys.word_size / 8)) /. 1e6);
    m "setup_s" "s" setup_s;
    m "ok_ratio" "ratio"
      (float_of_int (r.attempted - r.failed) /. float_of_int r.attempted);
  ]

(* Per-layer figures: self times and counts per traced op from the
   ledger (each op's times scaled by its own factor), figures the fleet
   op reports about its sessions, and GC deltas, both from the untraced
   half of the run. *)
let per_layer ~(untraced : run) ~(traced : run) ~gc =
  let ops = float_of_int (List.length traced.samples) in
  let sum f =
    List.fold_left
      (fun acc s ->
        match s.ledger with Some t -> acc +. f t s.t.Calib.factor | None -> acc)
      0.0 traced.samples
  in
  let scaled field name =
    let i = Ledger.layer_id name in
    sum (fun t k -> float_of_int (field t).(i) *. k) /. ops /. 1e6
  in
  let self = scaled (fun t -> t.Ledger.self_ns) in
  let total = scaled (fun t -> t.Ledger.total_ns) in
  let calls name =
    let i = Ledger.layer_id name in
    sum (fun t _ -> float_of_int t.Ledger.calls.(i))
  in
  let count name =
    let i = Ledger.counter_id name in
    sum (fun t _ -> float_of_int t.Ledger.counts.(i))
  in
  let per_op name = count name /. ops in
  let ratio a b = if b = 0.0 then 0.0 else a /. b in
  let reported ?(time = false) name =
    let value s =
      List.assoc_opt name s.op.W.layers
      |> Option.map (fun v -> if time then v *. s.t.Calib.factor else v)
    in
    match List.filter_map value untraced.samples with [] -> 0.0 | xs -> median xs
  in
  let untraced_ms = median (op_ms untraced) and traced_ms = median (op_ms traced) in
  let minor_mwords, major = gc in
  let steps = calls "sul.step" in
  let protos = [ "tcp"; "quic"; "dtls" ] in
  [
    m "learner.self_ms" "ms" (self "learner");
    m "learner.rounds" "count" (per_op "learner.rounds");
    m "learner.mq_words" "count" ((count "mq.words" -. count "eq.words") /. ops);
    m "eq.self_ms" "ms" (self "eq");
    m "eq.suite_ms" "ms" (total "eq.suite");
    m "eq.test_words" "count" (per_op "eq.words");
    m "cache.self_ms" "ms" (self "cache");
    m "cache.hit_ratio" "ratio"
      (ratio (count "cache.hits") (count "cache.hits" +. count "cache.misses"));
    m "exec.self_ms" "ms" (self "exec");
    m "exec.runs" "count" (per_op "exec.runs");
    m "exec.resets" "count" (per_op "exec.resets");
    m "exec.steps" "count" (per_op "exec.steps");
    m "exec.saved_ratio" "ratio"
      (ratio
         (count "exec.baseline" -. count "exec.resets" -. count "exec.steps")
         (count "exec.baseline"));
    m "exec.cache_hit_ratio" "ratio"
      (ratio (count "exec.cache_hits")
         (count "exec.cache_hits" +. count "exec.cache_misses"));
    m "sul.self_ms" "ms" (self "sul.query" +. self "sul.reset" +. self "sul.step");
    m "sul.resets" "count" (calls "sul.reset" /. ops);
    m "sul.steps" "count" (steps /. ops);
    m "sul.ns_per_step" "ns" (ratio (total "sul.step" *. 1e6 *. ops) steps);
  ]
  @ List.map (fun p -> m ("adapter.gamma_ms." ^ p) "ms" (self ("adapter.gamma." ^ p))) protos
  @ List.map (fun p -> m ("adapter.alpha_ms." ^ p) "ms" (self ("adapter.alpha." ^ p))) protos
  @ [
      m "codec.ms.tcp" "ms" (self "codec.tcp");
      m "network.ms" "ms" (self "network");
      m "network.datagrams" "count" (per_op "network.datagrams");
      m "network.bytes" "bytes" (per_op "network.bytes");
    ]
  @ List.map (fun p -> m ("server.ms." ^ p) "ms" (self ("server." ^ p))) protos
  @ [
      m "identify.session_ms" "ms" (reported ~time:true "identify.session_ms");
      m "identify.words_asked" "count" (reported "identify.words_asked");
      m "service.self_ms" "ms" (self "service");
      m "service.learn_session_ms" "ms" (reported ~time:true "service.learn_session_ms");
      m "service.busy_ratio" "ratio" (reported "service.busy_ratio");
      m "service.shared_hit_ratio" "ratio" (reported "service.shared_hit_ratio");
      m "runtime.minor_mwords" "Mwords" minor_mwords;
      m "runtime.major_collections" "count" major;
      m "machine.reference_ms" "ms"
        (ms (median (List.map float_of_int !Calib.references)));
      m "machine.raw_op_ms" "ms"
        (ms (median (List.map (fun s -> float_of_int s.t.Calib.raw_ns) untraced.samples)));
      m "ledger.untraced_op_ms" "ms" untraced_ms;
      m "ledger.traced_op_ms" "ms" traced_ms;
      m "ledger.overhead_ms" "ms" (traced_ms -. untraced_ms);
      m "ledger.unattributed_ms" "ms" (self "op");
      m "ledger.unattributed_share" "ratio" (ratio (self "op") (total "op"));
    ]

(* --- main --- *)

let usage =
  "perfbench --workload (learn-wire|learn-replay|fleet) [--seed N] [--seconds S] \
   [--trace 0|1]"

(* One set-up: the workload's own (inputs, library, solo runs) plus the
   warm-up ops, each segment scaled like an op. Returns the instance,
   the scaled seconds, and the first warm-up op's exact counters. *)
let set_up setup ~seed =
  let inst, t = Calib.timed (fun () -> setup ~seed) in
  let first, t1 = Calib.timed inst.W.run in
  let rest =
    List.init (warmup_ops - 1) (fun _ ->
        (snd (Calib.timed inst.W.run)).Calib.scaled_ns)
  in
  let scaled = List.fold_left ( +. ) (t.Calib.scaled_ns +. t1.Calib.scaled_ns) rest in
  (inst, scaled /. 1e9, counters first)

let () =
  let workload = ref "" and seed = ref default_seed in
  let seconds = ref default_seconds and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S measured seconds (default 10)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics or per-layer ledger");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let domains, setup =
    match List.find_opt (fun (name, _, _) -> name = !workload) W.all with
    | Some (_, domains, setup) when !trace = 0 || !trace = 1 -> (domains, setup)
    | _ ->
        prerr_endline usage;
        exit 2
  in
  (* Set-up is repeated and its median reported, so that work moved into
     set-up shows in setup_s; the last instance is the one measured. *)
  let setups =
    try List.init setups (fun _ -> set_up setup ~seed:!seed)
    with e ->
      prerr_endline ("set-up failed: " ^ Printexc.to_string e);
      exit 1
  in
  let inst, _, first = List.nth setups (List.length setups - 1) in
  let setup_s = median (List.map (fun (_, s, _) -> s) setups) in
  (* single-domain ops must repeat the warm-up op's exact counters *)
  let reference = if domains = 1 then Some first else None in
  if !trace = 0 then begin
    let r = loop ~seconds:!seconds ~reference inst.W.run in
    print_result ~attempted:r.attempted ~failed:r.failed (end_to_end r ~setup_s)
  end
  else begin
    let half = !seconds /. 2.0 in
    let g0 = Gc.quick_stat () in
    let untraced = loop ~seconds:half ~reference inst.W.run in
    let g1 = Gc.quick_stat () in
    let n = float_of_int untraced.attempted in
    let gc =
      ( (g1.Gc.minor_words -. g0.Gc.minor_words) /. 1e6 /. n,
        float_of_int (g1.Gc.major_collections - g0.Gc.major_collections) /. n )
    in
    Ledger.reset ();
    let traced =
      loop ~traced:true ~seconds:half ~reference (fun () ->
          Ledger.op inst.W.traced)
    in
    (try
       (try Sys.mkdir out_dir 0o755 with Sys_error _ -> ());
       Ledger.write (Filename.concat out_dir (!workload ^ ".spans.tsv"))
     with Sys_error msg -> prerr_endline ("could not write spans: " ^ msg));
    print_result
      ~attempted:(untraced.attempted + traced.attempted)
      ~failed:(untraced.failed + traced.failed)
      (per_layer ~untraced ~traced ~gc)
  end
