(* The experiment harness: regenerates every quantitative result and
   figure of the paper's evaluation (§6), printing paper-reported
   values next to the values measured on this reproduction, followed
   by Bechamel micro-benchmarks of the main pipelines.

   Experiment ids match DESIGN.md's per-experiment index (E1-E9). *)

module Mealy = Prognosis_automata.Mealy
module Testing = Prognosis_automata.Testing
module Learn = Prognosis_learner.Learn
module Profile = Prognosis_quic.Quic_profile
module Term = Prognosis_synthesis.Term
module Ext_mealy = Prognosis_synthesis.Ext_mealy
module Model_diff = Prognosis_analysis.Model_diff
open Prognosis

(* --- pretty tables --- *)

let print_table header rows =
  let widths =
    List.fold_left
      (fun widths row ->
        List.map2 (fun w cell -> max w (String.length cell)) widths row)
      (List.map String.length header)
      rows
  in
  let line row =
    String.concat " | "
      (List.map2 (fun w cell -> cell ^ String.make (w - String.length cell) ' ') widths row)
  in
  print_endline (line header);
  print_endline
    (String.concat "-+-" (List.map (fun w -> String.make w '-') widths));
  List.iter (fun row -> print_endline (line row)) rows

let section id title =
  Printf.printf "\n=== %s: %s ===\n\n" id title

(* The seed for the timed end-to-end learning benchmarks and the
   snapshot determinism guard. Pinned here once: the perf gate diffs
   counter blocks against bench/BENCH_baseline.json, so the benchmarked
   runs must draw exactly the stream the baseline was recorded with. *)
let bench_seed = 5L

(* Cached learning results: several experiments reuse them. *)
let tcp = Tcp_study.protocol ()
let quic = Quic_study.protocol
let tcp_ttt = lazy (Protocol.learn ~seed:1L tcp)
let tcp_lstar = lazy (Protocol.learn ~seed:1L ~algorithm:Learn.L_star tcp)
let quic_tolerant = lazy (Protocol.learn ~seed:1L (quic Profile.google_like))
let quic_strict = lazy (Protocol.learn ~seed:2L (quic Profile.strict_retry))
let quic_quiche = lazy (Protocol.learn ~seed:3L (quic Profile.quiche_like))

(* --- E1: learning the TCP implementation (§6.1) --- *)

let e1 () =
  section "E1" "Learning a TCP implementation (paper §6.1, Fig. 3b, App. A.1)";
  let ttt = snd (Lazy.force tcp_ttt) in
  let lstar = snd (Lazy.force tcp_lstar) in
  print_table
    [ "source"; "algorithm"; "states"; "transitions"; "membership queries" ]
    [
      [ "paper (Ubuntu 20.04 stack)"; "TTT"; "6"; "42"; "4726" ];
      [
        "this repo (simulated stack)";
        "TTT";
        string_of_int ttt.Report.states;
        string_of_int ttt.Report.transitions;
        string_of_int ttt.Report.membership_queries;
      ];
      [
        "this repo (simulated stack)";
        "L*";
        string_of_int lstar.Report.states;
        string_of_int lstar.Report.transitions;
        string_of_int lstar.Report.membership_queries;
      ];
    ];
  print_newline ();
  Printf.printf
    "shape check: model sizes match the paper exactly (6/42); query counts\n\
     differ because the learner, oracle caching and equivalence testing are\n\
     reimplementations, not LearnLib.\n"

(* --- E2: learning QUIC implementations (§6.2.2) --- *)

let e2 () =
  section "E2" "Learning QUIC implementations (paper §6.2.2, App. A.2-3)";
  let a = snd (Lazy.force quic_tolerant) in
  let b = snd (Lazy.force quic_strict) in
  let c = snd (Lazy.force quic_quiche) in
  let row label (r : Report.t) =
    [
      label;
      string_of_int r.Report.states;
      string_of_int r.Report.transitions;
      string_of_int r.Report.membership_queries;
      string_of_int r.Report.equivalence_rounds;
    ]
  in
  print_table
    [ "implementation"; "states"; "transitions"; "membership queries"; "eq rounds" ]
    [
      [ "paper impl #1"; "12"; "84"; "24301"; "-" ];
      [ "paper impl #2"; "8"; "56"; "12301"; "-" ];
      row "this repo: retry-tolerant (google-like)" a;
      row "this repo: retry-strict (strict-retry)" b;
      row "this repo: no-retry (quiche-like)" c;
    ];
  print_newline ();
  Printf.printf
    "shape check: as in the paper, the implementations learn models of\n\
     different sizes (%d vs %d states) and the retry-tolerant one is larger.\n"
    a.Report.states b.Report.states

(* --- E3: trace reduction (§6.2.2) --- *)

let e3 () =
  section "E3" "Trace reduction via model-based test suites (paper §6.2.2)";
  let exhaustive = Mealy.count_words ~alphabet:7 ~max_len:10 in
  let suite m = Testing.w_method ~extra_states:0 m in
  let wp m = Testing.wp_method ~extra_states:0 m in
  let a = fst (Lazy.force quic_tolerant) in
  let b = fst (Lazy.force quic_strict) in
  print_table
    [ "quantity"; "paper"; "this repo" ]
    [
      [ "traces of length <= 10, alphabet 7"; "329,554,456";
        Printf.sprintf "%d" exhaustive ];
      [ "model-derived tests, impl #1"; "1210";
        Printf.sprintf "%d (W) / %d (Wp)" (List.length (suite a)) (List.length (wp a)) ];
      [ "model-derived tests, impl #2"; "715";
        Printf.sprintf "%d (W) / %d (Wp)" (List.length (suite b)) (List.length (wp b)) ];
    ];
  print_newline ();
  Printf.printf
    "shape check: the exhaustive count reproduces exactly (same alphabet and\n\
     depth); the learned models cut the traces to check by ~10^5-10^6x, as\n\
     in the paper.\n"

(* --- E4: Issue 1, RFC imprecision (§6.2.3) --- *)

let e4 () =
  section "E4" "Issue 1: RFC imprecision on post-Retry packet-number reset (§6.2.3)";
  let summary =
    Model_diff.summarize ~max_witnesses:2
      (fst (Lazy.force quic_tolerant))
      (fst (Lazy.force quic_strict))
  in
  print_table
    [ "observation"; "paper"; "this repo" ]
    [
      [ "models have different sizes"; "12 vs 8 states";
        Printf.sprintf "%d vs %d states" summary.Model_diff.states_a
          summary.Model_diff.states_b ];
      [ "behaviours fork at"; "RETRY / PNS reset"; "second INITIAL[CRYPTO]" ];
    ];
  print_newline ();
  (match summary.Model_diff.witnesses with
  | w :: _ ->
      Printf.printf "shortest distinguishing trace:\n  input: %s\n  #1   : %s\n  #2   : %s\n"
        (String.concat " " (List.map Quic_study.Alphabet.to_string w.Model_diff.word))
        (String.concat " "
           (List.map Quic_study.Alphabet.output_to_string w.Model_diff.outputs_a))
        (String.concat " "
           (List.map Quic_study.Alphabet.output_to_string w.Model_diff.outputs_b))
  | [] -> print_endline "unexpectedly equivalent!");
  Printf.printf
    "\nshape check: one implementation continues the handshake after the\n\
     client resets its packet-number space, the other aborts with\n\
     CONNECTION_CLOSE — the ambiguity the paper reported, later resolved by\n\
     the spec as 'a server MAY abort' [PR #3990].\n"

(* --- E5: Issue 2, nondeterministic post-close resets (§6.2.4) --- *)

let e5 () =
  section "E5" "Issue 2: nondeterminism in connection closure (§6.2.4)";
  let rate p = Quic_study.close_reset_rate ~seed:9L ~runs:500 p in
  let quiche = rate Profile.quiche_like in
  let mvfst = rate Profile.mvfst_like in
  print_table
    [ "implementation"; "paper"; "this repo (500 probes)" ]
    [
      [ "compliant"; "consistent (0% or 100%)"; Printf.sprintf "%.1f%%" (100. *. quiche) ];
      [ "mvfst"; "82%"; Printf.sprintf "%.1f%%" (100. *. mvfst) ];
    ];
  print_newline ();
  Printf.printf
    "shape check: the compliant server answers every post-close probe with a\n\
     Stateless Reset; the mvfst profile answers only ~82%% of them — the\n\
     inconsistent, back-off-free behaviour the paper flags as a DoS vector.\n"

(* --- E6: Issue 3, inconsistent port on Retry (§6.2.5) --- *)

let e6 () =
  section "E6" "Issue 3: inconsistent port on RETRY in the reference client (§6.2.5)";
  let healthy = fst (Lazy.force quic_tolerant) in
  let buggy, _ =
    Protocol.learn ~seed:4L
      (Quic_study.protocol Profile.google_like
         ~client_config:
           { Prognosis_quic.Quic_client.retry_port_bug = true; pns_reset_on_retry = true })
  in
  let summary = Model_diff.summarize ~max_witnesses:1 healthy buggy in
  (* Can the buggy setup ever complete a handshake? Search the model for
     a reachable transition outputting HANDSHAKE_DONE. *)
  let completes model =
    let found = ref false in
    for s = 0 to Mealy.size model - 1 do
      Array.iter
        (fun sym ->
          let _, o = Mealy.step model s sym in
          if
            List.exists
              (fun (a : Quic_study.Alphabet.apacket) ->
                List.mem Prognosis_quic.Frame.K_handshake_done
                  a.Quic_study.Alphabet.frames)
              o
          then found := true)
        (Mealy.inputs model)
    done;
    !found
  in
  print_table
    [ "client"; "model states"; "handshake reachable" ]
    [
      [ "healthy reference client";
        string_of_int summary.Model_diff.states_a;
        string_of_bool (completes healthy) ];
      [ "retry-port-bug client (QUIC-Tracker)";
        string_of_int summary.Model_diff.states_b;
        string_of_bool (completes buggy) ];
    ];
  print_newline ();
  Printf.printf
    "shape check: with the reference-implementation bug, the learned model\n\
     shows connection establishment is impossible after a RETRY — exactly how\n\
     the paper detected that QUIC-Tracker echoed the token from a new random\n\
     port, breaking address validation.\n"

(* --- E7: Issue 4, STREAM_DATA_BLOCKED constant (§6.2.6, App. B.1) --- *)

let sdb_words =
  Quic_study.Alphabet.
    [
      [ Initial_crypto; Initial_crypto; Handshake_ack_crypto; Short_ack_stream ];
      [
        Initial_crypto;
        Initial_crypto;
        Handshake_ack_crypto;
        Short_ack_stream;
        Short_ack_flow;
      ];
      [
        Initial_crypto;
        Initial_crypto;
        Handshake_ack_crypto;
        Short_ack_flow;
        Short_ack_stream;
      ];
    ]

let e7 () =
  section "E7" "Issue 4: Maximum Stream Data constant 0 in Google QUIC (§6.2.6)";
  let verdict profile seed =
    let model, _ = Protocol.learn ~seed (quic profile) in
    let adapter, _ = Prognosis_quic.Quic_adapter.create ~profile ~seed () in
    match Protocol.synthesize Quic_study.fields adapter model sdb_words with
    | Error e -> "synthesis failed: " ^ e
    | Ok machine -> (
        match Quic_study.sdb_verdict machine with
        | `Constant c -> Printf.sprintf "CONSTANT %d" c
        | `Symbolic -> "tracks blocked offset (register term)"
        | `Unobserved -> "unobserved")
  in
  print_table
    [ "implementation"; "paper"; "this repo (synthesized term)" ]
    [
      [ "Google QUIC"; "always 0 (placeholder)"; verdict Profile.google_like 21L ];
      [ "compliant"; "blocked offset"; verdict Profile.quiche_like 22L ];
    ];
  print_newline ();
  Printf.printf
    "shape check: synthesizing the extended Mealy machine over the\n\
     STREAM_DATA_BLOCKED field yields the constant 0 for the buggy profile\n\
     and a symbolic register term for the compliant one (paper App. B.1).\n"

(* --- E8: register synthesis for TCP (§4.3, Fig. 3c / Fig. 4) --- *)

let e8 () =
  section "E8" "Register synthesis over TCP sequence numbers (§4.3, Fig. 3c/4)";
  let model = fst (Lazy.force tcp_ttt) in
  let words =
    Prognosis_tcp.Tcp_alphabet.
      [
        [ Syn; Ack; Ack_psh; Ack_psh ];
        [ Syn; Ack_psh; Fin_ack ];
        [ Syn; Ack; Fin_ack; Ack ];
      ]
  in
  let fields = Tcp_study.fields in
  match
    Protocol.synthesize fields (Prognosis_tcp.Tcp_adapter.create ~seed:1L ()) model
      words
  with
  | Error e -> Printf.printf "synthesis failed: %s\n" e
  | Ok machine ->
      let term_str t =
        match t with
        | None -> "?"
        | Some t ->
            Term.to_string ~names_in:fields.Protocol.names_in
              ~names_out:fields.Protocol.names_out t
      in
      let initial = Mealy.initial model in
      print_table
        [ "transition"; "paper pattern"; "synthesized ack term" ]
        [
          [ "LISTEN --SYN--> SYN_RCVD / SYN+ACK"; "ack = seq+1 (r+1 register)";
            term_str
              (Ext_mealy.output_term machine ~state:initial
                 ~input:Prognosis_tcp.Tcp_alphabet.Syn ~field:1) ];
        ];
      print_newline ();
      Printf.printf
        "shape check: the solver recovers the handshake invariant ack=seq+1\n\
         from Oracle-Table traces alone, the Figure 3(c)/Figure 4 result.\n"

(* --- E9: instrumentation cost (§3.2, §6.1) --- *)

let count_lines path =
  try
    let ic = open_in path in
    let n = ref 0 in
    (try
       while true do
         ignore (input_line ic);
         incr n
       done
     with End_of_file -> ());
    close_in ic;
    Some !n
  with Sys_error _ -> None

let e9 () =
  section "E9" "Instrumentation cost: adapter vs protocol logic (§3.2)";
  let sum paths =
    List.fold_left
      (fun acc p -> match count_lines p with Some n -> acc + n | None -> acc)
      0 paths
  in
  let tcp_adapter = sum [ "lib/tcp/tcp_adapter.ml"; "lib/tcp/tcp_client.ml" ] in
  let tcp_protocol = sum [ "lib/tcp/tcp_server.ml"; "lib/tcp/tcp_wire.ml" ] in
  let quic_adapter = sum [ "lib/quic/quic_adapter.ml"; "lib/quic/quic_client.ml" ] in
  let quic_protocol =
    sum
      [
        "lib/quic/quic_server.ml"; "lib/quic/quic_packet.ml"; "lib/quic/frame.ml";
        "lib/quic/quic_crypto.ml"; "lib/quic/varint.ml";
      ]
  in
  if tcp_adapter = 0 then
    print_endline
      "(source tree not reachable from the current directory; run from the\n\
       repository root to measure)"
  else begin
    print_table
      [ "protocol"; "paper: instrumentation"; "paper: full mapper [22]"; "this repo: adapter"; "this repo: protocol stack" ]
      [
        [ "TCP"; "~300 LoC"; "2700 LoC";
          string_of_int tcp_adapter; string_of_int tcp_protocol ];
        [ "QUIC"; "~2000 LoC"; "infeasible";
          string_of_int quic_adapter; string_of_int quic_protocol ];
      ];
    print_newline ();
    Printf.printf
      "shape check: the adapter (instrumented reference client) is a small\n\
       fraction of the protocol stack it reuses — the paper's core\n\
       modularity argument.\n"
  end

(* --- Ablations: the design choices DESIGN.md calls out --- *)

(* One prebuilt SUL through the engine's sequential path (Pipeline.learn
   without ?exec), so the SUL's and the equivalence oracle's seeds stay
   the caller's. *)
let learn_sul ?(algorithm = Learn.Ttt_tree) ~inputs ~sul ~eq () =
  match
    Pipeline.learn ~subject:sul.Prognosis_sul.Sul.description ~seed:0L
      ~algorithm ~inputs
      ~factory:(fun ~seed:_ ~workers:_ _ -> sul)
      ~eq ()
  with
  | Ok learned -> learned
  | Error _ -> failwith "bench: the SUL answered nondeterministically"

let a1_algorithm_and_cache () =
  section "A1" "Ablation: learning algorithm x query cache (TCP)";
  let row name algorithm cache =
    let sul = Prognosis_tcp.Tcp_adapter.sul ~seed:1L () in
    let inputs = Prognosis_tcp.Tcp_alphabet.all in
    let eq = Protocol.eq_oracle tcp ~seed:1L in
    let r =
      if cache then snd (learn_sul ~algorithm ~inputs ~sul ~eq ())
      else
        Report.of_learn_result ~subject:"tcp" ~algorithm:""
          (Learn.run_mq ~algorithm ~inputs
             ~mq:(Prognosis_learner.Oracle.of_sul sul) ~eq ())
    in
    [
      name;
      string_of_int r.Report.states;
      string_of_int r.Report.membership_queries;
      string_of_int r.Report.cache_hits;
      string_of_int r.Report.equivalence_rounds;
    ]
  in
  print_table
    [ "configuration"; "states"; "SUL queries"; "cache hits"; "eq rounds" ]
    [
      row "TTT + cache" Learn.Ttt_tree true;
      row "TTT, no cache" Learn.Ttt_tree false;
      row "L* + cache" Learn.L_star true;
      row "L*, no cache" Learn.L_star false;
    ];
  print_newline ();
  print_endline
    "takeaway: the prefix cache absorbs a large share of redundant queries;\n\
     TTT needs fewer live queries than L*, as expected from the literature."

let a2_equivalence_oracles () =
  section "A2" "Ablation: equivalence oracle choice (TCP)";
  let module Eq = Prognosis_learner.Eq_oracle in
  let target = fst (Lazy.force tcp_ttt) in
  let run name eq =
    let sul = Prognosis_tcp.Tcp_adapter.sul ~seed:1L () in
    let model, r =
      learn_sul ~inputs:Prognosis_tcp.Tcp_alphabet.all ~sul ~eq ()
    in
    [
      name;
      string_of_int (Mealy.size model);
      string_of_int r.Report.test_words;
      string_of_bool (Mealy.equivalent model target = None);
    ]
  in
  let rng1 = Prognosis_sul.Rng.create 21L in
  let rng2 = Prognosis_sul.Rng.create 22L in
  print_table
    [ "oracle"; "states"; "test words"; "finds true model" ]
    [
      run "W-method (k=1)" (Eq.w_method ~extra_states:1 ());
      run "Wp-method (k=1)" (Eq.wp_method ~extra_states:1 ());
      run "random words (2000)"
        (Eq.random_words ~rng:rng1 ~max_tests:2000 ~min_len:1 ~max_len:12);
      run "random words (5, len<=2)"
        (Eq.random_words ~rng:rng2 ~max_tests:5 ~min_len:1 ~max_len:2);
    ];
  print_newline ();
  print_endline
    "takeaway: conformance suites (W/Wp) guarantee the result up to the state\n\
     bound; an underpowered random oracle can terminate on a too-small model\n\
     — the paper's point that absent counterexamples prove nothing."

let a3_tcp_server_config () =
  section "A3" "Ablation: TCP server design choices vs learned model";
  let learn config =
    Protocol.learn ~seed:1L (Tcp_study.protocol ~server_config:config ())
  in
  let base = Prognosis_tcp.Tcp_server.default_config in
  let default_model = fst (learn base) in
  let row name config =
    let model, report = learn config in
    [
      name;
      string_of_int report.Report.states;
      string_of_int report.Report.transitions;
      string_of_bool (Mealy.equivalent model default_model = None);
    ]
  in
  print_table
    [ "server configuration"; "states"; "transitions"; "same behaviour as default" ]
    [
      row "one-shot listener, challenge ACKs (default)" base;
      row "persistent listener" { base with Prognosis_tcp.Tcp_server.one_shot = false };
      row "no challenge ACKs"
        { base with Prognosis_tcp.Tcp_server.challenge_acks = false };
    ];
  print_newline ();
  print_endline
    "takeaway: implementation choices that look minor (does the listener\n\
     survive a close? are in-window SYNs challenged?) are immediately visible\n\
     as different learned-model shapes — the mechanism behind the paper's\n\
     cross-implementation findings."

let a4_passive_hybrid () =
  section "A4" "Ablation: passive/active hybrid (paper §8 future work)";
  let module Passive = Prognosis_learner.Passive in
  let module Cache = Prognosis_learner.Cache in
  let module Engine = Prognosis_exec.Engine in
  let inputs = Prognosis_tcp.Tcp_alphabet.all in
  let learn ~log_words =
    let rng = Prognosis_sul.Rng.create 17L in
    let log_sul = Prognosis_tcp.Tcp_adapter.sul ~seed:31L () in
    let logs =
      if log_words = 0 then []
      else Passive.random_sample ~rng ~inputs ~words:log_words ~max_len:8 log_sul
    in
    let sul = Prognosis_tcp.Tcp_adapter.sul ~seed:31L () in
    let cache = Cache.create () in
    Passive.preload cache logs;
    let engine =
      Engine.create
        ~config:{ Engine.default with Engine.batch = false }
        ~cache
        ~factory:(fun _ -> sul)
        ()
    in
    let _model, _ =
      Prognosis_learner.Ttt.learn ~inputs ~mq:(Engine.membership engine)
        ~eq:(Prognosis_learner.Eq_oracle.w_method ~extra_states:1 ())
        ()
    in
    (Engine.oracle_stats engine).Prognosis_learner.Oracle.membership_queries
  in
  print_table
    [ "logged words preloaded"; "live SUL queries" ]
    (List.map
       (fun n -> [ string_of_int n; string_of_int (learn ~log_words:n) ])
       [ 0; 100; 400; 1000 ]);
  print_newline ();
  print_endline
    "takeaway: preloading logged traffic into the membership cache lets the\n\
     active learner skip queries the logs already answer — the passive+active\n\
     combination the paper proposes as future work, with guarantees intact."

let a5_nondet_sensitivity () =
  section "A5" "Ablation: nondeterminism-check sensitivity (Issue 2 detection)";
  let module Nondet = Prognosis_sul.Nondet in
  let word =
    Quic_study.Alphabet.[ Initial_crypto; Handshake_ack_hsd; Short_ack_stream ]
  in
  let detection_rate min_runs =
    let trials = 40 in
    let detected = ref 0 in
    for t = 1 to trials do
      let sul =
        Prognosis_quic.Quic_adapter.sul ~profile:Profile.mvfst_like
          ~seed:(Int64.of_int (1000 + t))
          ()
      in
      match
        Nondet.query { Nondet.min_runs; max_runs = 10 * min_runs; agreement = 0.99 }
          sul word
      with
      | Nondet.Nondeterministic _ -> incr detected
      | Nondet.Deterministic _ -> ()
    done;
    float_of_int !detected /. float_of_int trials
  in
  print_table
    [ "min runs per query"; "detection rate (40 trials)" ]
    (List.map
       (fun n -> [ string_of_int n; Printf.sprintf "%.0f%%" (100. *. detection_rate n) ])
       [ 1; 2; 3; 5; 10 ]);
  print_newline ();
  print_endline
    "takeaway: a single execution per query (min_runs=1) can never observe\n\
     the 82%-reset inconsistency; a handful of repetitions makes detection\n\
     near-certain — why the paper's check runs every query a minimum number\n\
     of times."

(* --- A7: the query-execution engine vs the sequential oracle --- *)

let exec_config =
  {
    Prognosis_exec.Engine.default with
    Prognosis_exec.Engine.workers = 4;
    batch = true;
  }

let tcp_pooled = lazy (Protocol.learn ~seed:1L ~exec:exec_config tcp)

let quic_pooled =
  lazy (Protocol.learn ~seed:3L ~exec:exec_config (quic Profile.quiche_like))

let exec_field e k =
  let module Jsonx = Prognosis_obs.Jsonx in
  match Jsonx.member k e with
  | Some v -> Option.value ~default:0 (Jsonx.to_int_opt v)
  | None -> 0

let a7_exec () =
  section "A7"
    "Ablation: query-execution engine (4 workers, batched) vs sequential oracle";
  let rows = ref [] and checks = ref [] in
  let substrate name direct pooled =
    let direct_model, (direct : Report.t) = Lazy.force direct in
    let pooled_model, (pooled : Report.t) = Lazy.force pooled in
    let e = Option.get pooled.Report.exec in
    let base_r = exec_field e "baseline_resets"
    and base_s = exec_field e "baseline_steps" in
    let eng_r = exec_field e "resets" and eng_s = exec_field e "steps" in
    let seq_r = direct.Report.membership_queries
    and seq_s = direct.Report.membership_symbols in
    let pct a b = 100. *. (1. -. (float_of_int a /. float_of_int b)) in
    let row oracle r s =
      [
        name;
        oracle;
        string_of_int r;
        string_of_int s;
        string_of_int (r + s);
        Printf.sprintf "%.1f%%" (pct (r + s) (base_r + base_s));
      ]
    in
    rows :=
      !rows
      @ [
          row "sequential, no reuse (baseline)" base_r base_s;
          row "sequential + cache (seed path)" seq_r seq_s;
          row "engine: 4 workers, batched" eng_r eng_s;
        ];
    let identical = Mealy.equivalent direct_model pooled_model = None in
    let saved = 4 * (eng_r + eng_s) <= 3 * (base_r + base_s) in
    checks := (name, identical, saved) :: !checks;
    (* The subsystem's acceptance bar: identical models, >= 25% fewer
       resets+steps than the no-reuse sequential oracle. *)
    assert identical;
    assert saved
  in
  substrate "tcp" tcp_ttt tcp_pooled;
  substrate "quic" quic_quiche quic_pooled;
  print_table
    [ "substrate"; "oracle"; "resets"; "steps"; "resets+steps"; "saved vs no-reuse" ]
    !rows;
  print_newline ();
  List.iter
    (fun (name, identical, saved) ->
      Printf.printf "check (%s): identical models: %b; >=25%% saved: %b\n" name
        identical saved)
    (List.rev !checks);
  print_endline
    "takeaway: the engine's cache/dedup/prefix planning absorbs the redundant\n\
     share of the query stream (>=25% of resets+steps against a no-reuse\n\
     sequential oracle, asserted above) while the learned models stay\n\
     identical; most of the residual cost is the conformance suite, whose\n\
     maximal words every closed-box oracle must execute in full."

(* --- A9: packed automaton stepping vs the functional interpreter --- *)

let a9_packed () =
  section "A9" "Ablation: packed automaton stepping vs functional interpreter";
  let m = fst (Lazy.force quic_quiche) in
  let suite = Testing.w_method ~extra_states:1 m in
  let words = List.length suite in
  let symbols = List.fold_left (fun acc w -> acc + List.length w) 0 suite in
  (* observational equality first: the packed stepper must agree with
     the reference interpreter on every suite word *)
  List.iter
    (fun w ->
      if Mealy.run m w <> Mealy.run_reference m w then
        failwith "A9: packed stepping diverges from the functional interpreter")
    suite;
  ignore (Mealy.pack m);
  let time reps f =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to reps do
      List.iter (fun w -> ignore (f m w)) suite
    done;
    (Unix.gettimeofday () -. t0) /. float_of_int reps
  in
  let reps = 40 in
  let packed = time reps Mealy.run in
  let functional = time reps Mealy.run_reference in
  print_table
    [ "stepper"; "suite time"; "per symbol" ]
    [
      [ "functional (map lookups)";
        Printf.sprintf "%.2f ms" (1000. *. functional);
        Printf.sprintf "%.0f ns" (1e9 *. functional /. float_of_int symbols) ];
      [ "packed (flat int arrays)";
        Printf.sprintf "%.2f ms" (1000. *. packed);
        Printf.sprintf "%.0f ns" (1e9 *. packed /. float_of_int symbols) ];
    ];
  print_newline ();
  Printf.printf
    "check: outputs identical on all %d suite words (%d symbols); packed\n\
     stepping is %.1fx the functional interpreter's speed on this run.\n\
     takeaway: freezing the transition maps into flat next/output arrays\n\
     turns hypothesis execution — the inner loop of equivalence testing and\n\
     product exploration — into two array reads per symbol.\n"
    words symbols
    (functional /. packed)

let a8_loss_robustness () =
  section "A8" "Ablation: learning through a lossy channel (environmental nondeterminism, §5)";
  let reference = fst (Lazy.force tcp_ttt) in
  let attempt ~loss ~runs =
    let sul =
      Prognosis_tcp.Tcp_adapter.sul
        ~network:(Prognosis_sul.Network.lossy loss) ~seed:7L ()
    in
    let mq =
      Prognosis_learner.Oracle.of_fun
        (Prognosis_sul.Nondet.modal_oracle ~runs sul)
    in
    match
      Prognosis_learner.Learn.run_mq ~max_rounds:50
        ~inputs:Prognosis_tcp.Tcp_alphabet.all ~mq
        ~eq:(Prognosis_learner.Eq_oracle.w_method ~extra_states:1 ())
        ()
    with
    | result ->
        let same =
          Mealy.equivalent result.Learn.model reference = None
        in
        ( (if same then "recovered exactly" else "diverged"),
          result.Learn.stats.Prognosis_learner.Oracle.membership_queries )
    | exception Failure _ -> ("learning failed", 0)
  in
  print_table
    [ "loss rate"; "runs/query"; "outcome"; "SUL executions" ]
    (List.map
       (fun (loss, runs) ->
         let outcome, queries = attempt ~loss ~runs in
         [
           Printf.sprintf "%.0f%%" (100. *. loss);
           string_of_int runs;
           outcome;
           string_of_int (queries * runs);
         ])
       [ (0.0, 1); (0.03, 15); (0.10, 25) ]);
  print_newline ();
  print_endline
    "takeaway: environmental loss makes single executions nondeterministic;\n\
     the repetition mechanism of §5 (modal answers over repeated runs)\n\
     recovers the exact reliable-channel model at moderate loss, paying\n\
     linearly in SUL executions. At 10% loss the mechanism hits its limit:\n\
     lost packets desynchronize client and server state, per-position modal\n\
     answers stop describing any single machine, and the learner rejects its\n\
     own counterexamples — matching the paper's remark that past a retry\n\
     budget, learning must pause and surface the problem to the user."

let a6_alphabet_size () =
  section "A6" "Ablation: abstract-alphabet size vs learning cost (§6.2.2)";
  let run alphabet =
    let t0 = Unix.gettimeofday () in
    let _, report =
      Protocol.learn ~seed:3L (Quic_study.protocol ~alphabet Profile.quiche_like)
    in
    (report, Unix.gettimeofday () -. t0)
  in
  let seven, t7 = run Quic_study.Alphabet.all in
  let nine, t9 = run Quic_study.Alphabet.extended in
  let row name (r : Report.t) dt =
    [
      name;
      string_of_int r.Report.alphabet;
      string_of_int r.Report.states;
      string_of_int r.Report.membership_queries;
      Printf.sprintf "%.0f ms" (1000. *. dt);
      string_of_int (Report.trace_count r ~max_len:10);
    ]
  in
  print_table
    [ "alphabet"; "symbols"; "states"; "SUL queries"; "wall time"; "traces len<=10" ]
    [
      row "paper's 7 symbols" seven t7;
      row "extended (+PING, +PATH_CHALLENGE, +PATH_RESPONSE)" nine t9;
    ];
  print_newline ();
  print_endline
    "takeaway: three extra symbols multiply the exhaustive trace space ~35x\n\
     and grow query counts noticeably — the paper's reason for hand-picking a\n\
     seven-symbol alphabet instead of the >30,000-symbol full frame space."

let x1_third_protocol () =
  section "X1" "Reusability: a third protocol through the same engine (contribution 1)";
  let _, dtls = Protocol.learn ~seed:41L (Dtls_study.protocol ()) in
  let _, dtls_nocookie =
    Protocol.learn ~seed:43L
      (Dtls_study.protocol
         ~server_config:
           { Prognosis_dtls.Dtls_server.require_cookie = false; strict_ccs = true }
         ())
  in
  let row (r : Report.t) =
    [
      r.Report.subject;
      string_of_int r.Report.alphabet;
      string_of_int r.Report.states;
      string_of_int r.Report.transitions;
      string_of_int r.Report.membership_queries;
    ]
  in
  print_table
    [ "subject"; "alphabet"; "states"; "transitions"; "SUL queries" ]
    [
      row (snd (Lazy.force tcp_ttt));
      row (snd (Lazy.force quic_quiche));
      row { dtls with Report.subject = "dtls (cookie)" };
      row { dtls_nocookie with Report.subject = "dtls (no cookie)" };
    ];
  print_newline ();
  print_endline
    "takeaway: TCP, QUIC and MiniDTLS all run through the identical learner,\n\
     oracles, adapter framework and analyses — only the protocol substrate\n\
     and its (α, γ) pair change, the paper's modularity claim. The cookie\n\
     round-trip is visible as extra states, like QUIC's Retry."

let x4_interop_matrix () =
  section "X4" "Interop matrix: model-guided differential testing across QUIC profiles (§7)";
  let module Diff_test = Prognosis_analysis.Diff_test in
  let profiles = Profile.[ quiche_like; google_like; strict_retry ] in
  let model_of p =
    match p.Profile.name with
    | "google-like" -> fst (Lazy.force quic_tolerant)
    | "strict-retry" -> fst (Lazy.force quic_strict)
    | _ -> fst (Lazy.force quic_quiche)
  in
  let cell pa pb =
    if pa.Profile.name = pb.Profile.name then "-"
    else begin
      let sul = Prognosis_quic.Quic_adapter.sul ~profile:pb ~seed:99L () in
      match Diff_test.model_guided ~max_mismatches:100 ~model:(model_of pa) sul with
      | [] -> "agree"
      | ms -> Printf.sprintf "%d diffs" (List.length ms)
    end
  in
  print_table
    ("model \\ live impl" :: List.map (fun p -> p.Profile.name) profiles)
    (List.map
       (fun pa -> pa.Profile.name :: List.map (fun pb -> cell pa pb) profiles)
       profiles);
  print_newline ();
  print_endline
    "takeaway: each learned model's conformance suite, replayed against every\n\
     other live implementation, pinpoints where the implementations diverge —\n\
     the §7 complementarity of model learning and differential testing, as an\n\
     interop matrix."

let x3_client_role () =
  section "X3" "Role reversal: learning a TCP client with socket-call triggers ([22]'s setup)";
  let module Study = Prognosis_tcp.Tcp_client_study in
  let client =
    {
      Protocol.name = "tcp-client";
      kind = Persist.Tcp_client_model;
      inputs = Study.all;
      input_to_string = Study.to_string;
      output_to_string = Study.output_to_string;
      sul = (fun ~seed -> Study.sul ~seed ());
      scenarios =
        Study.
          [
            [ Cmd_connect; In_syn_ack; Cmd_send; In_ack; Cmd_close; In_ack; In_fin_ack ];
            [ Cmd_connect; In_syn_ack; In_fin_ack; Cmd_close; In_ack ];
            [ Cmd_connect; In_rst; Cmd_connect ];
          ];
      random_words = 400;
      max_len = 10;
    }
  in
  (* one SUL behind the cache, as X3 has always run: SUL seed 51,
     random test words from the stream of seed 52 (= 45 + 7) *)
  let model, r =
    learn_sul ~inputs:Study.all ~sul:(client.Protocol.sul ~seed:51L)
      ~eq:(Protocol.eq_oracle client ~seed:45L) ()
  in
  print_table
    [ "subject"; "alphabet"; "states"; "transitions"; "SUL queries" ]
    [
      [
        "tcp client (CONNECT/SEND/CLOSE + wire)";
        string_of_int (Array.length Study.all);
        string_of_int (Mealy.size model);
        string_of_int (Mealy.transitions model);
        string_of_int r.Report.membership_queries;
      ];
    ];
  print_newline ();
  let path =
    Mealy.run model
      Study.[ Cmd_connect; In_syn_ack; Cmd_close; In_ack; In_fin_ack ]
  in
  Printf.printf "active close in the learned model:\n  %s\n"
    (String.concat " . " (List.map Study.output_to_string path));
  Printf.printf
    "\ntakeaway: the same engine learns the client role — inputs mix socket\n\
     calls and server segments, the reference endpoint is a server instead of\n\
     a client, and the learned machine exhibits the full RFC 793 client\n\
     lifecycle (SYN_SENT, FIN_WAIT_1/2, TIME_WAIT, CLOSE_WAIT, LAST_ACK).\n"

let x2_quantitative_models () =
  section "X2" "Quantitative models: stochastic annotation + weighted-automata learning (§8)";
  let module Nondet = Prognosis_sul.Nondet in
  let module Stochastic = Prognosis_analysis.Stochastic in
  let module Wfa = Prognosis_learner.Wfa in
  let sul =
    Prognosis_quic.Quic_adapter.sul ~profile:Profile.mvfst_like ~seed:314L ()
  in
  (* 1. learn the modal skeleton of the stochastic implementation. *)
  let mq =
    Prognosis_learner.Oracle.of_fun (Nondet.modal_oracle ~runs:41 sul)
  in
  let rng = Prognosis_sul.Rng.create 15L in
  let skeleton =
    (Prognosis_learner.Learn.run_mq ~max_rounds:30
       ~inputs:Quic_study.Alphabet.all ~mq
       ~eq:
         (Prognosis_learner.Eq_oracle.random_words ~rng ~max_tests:150 ~min_len:1
            ~max_len:6)
       ())
      .Prognosis_learner.Learn.model
  in
  (* 2. estimate per-transition reset probabilities. *)
  let st = Stochastic.estimate ~samples_per_transition:200 ~skeleton ~sul () in
  let reset_prob ~state ~input =
    Stochastic.probability st ~state ~input
      [ Quic_study.Alphabet.abstract_reset ]
  in
  (* 3. learn a weighted automaton of the expected-reset-count function. *)
  let target = Wfa.expected_count ~skeleton ~weight:reset_prob in
  let wfa_rng = Prognosis_sul.Rng.create 16L in
  let eq =
    Wfa.random_eq ~rng:wfa_rng ~mq:target ~tolerance:1e-6 ~max_tests:400
      ~max_len:8 Quic_study.Alphabet.all
  in
  (match Wfa.learn ~alphabet:Quic_study.Alphabet.all ~mq:target ~eq () with
  | Error e -> Printf.printf "WFA learning failed: %s\n" e
  | Ok wfa ->
      let close_then_probe k =
        Quic_study.Alphabet.(
          [ Initial_crypto; Handshake_ack_hsd ]
          @ List.init k (fun _ -> Short_ack_stream))
      in
      print_table
        [ "input word"; "expected resets (WFA prediction)" ]
        (List.map
           (fun k ->
             [
               Printf.sprintf "close, then %d probes" k;
               Printf.sprintf "%.2f" (Wfa.evaluate wfa (close_then_probe k));
             ])
           [ 0; 1; 5; 10 ]);
      print_newline ();
      Printf.printf
        "WFA dimension: %d. shape check: predictions grow linearly at ~0.82\n\
         resets per probe — the mvfst DoS cost model, expressed as the kind of\n\
         quantitative model the paper's future-work section asks for.\n"
        (Wfa.states wfa))

(* --- FIGS: DOT renderings of every learned model (paper App. A) --- *)

(* --- F1: open-world fingerprinting of an endpoint population --- *)

module Library = Prognosis_fingerprint.Library
module Splitter = Prognosis_fingerprint.Splitter
module Identify = Prognosis_fingerprint.Identify

type f1_endpoint = {
  f_name : string;
  f_kind : Persist.kind;
  f_model : (string, string) Mealy.t;
  f_learn_queries : int;
  f_sul : unit -> (string, string) Prognosis_sul.Sul.t;
}

module Subject = Prognosis_service.Subject

let subject name =
  match Subject.of_name name with Ok s -> s | Error e -> failwith e

(* One endpoint of the population: the subject learned at [seed] (the
   studies' bench seeds) and probed through fresh SULs seeded
   [probe_seed]. *)
let f1_endpoint name ~seed ~probe_seed =
  let s = subject name in
  let model, report =
    s.Subject.learn ~seed ~algorithm:Learn.Ttt_tree ~exec:None
  in
  {
    f_name = name;
    f_kind = s.Subject.kind;
    f_model = model;
    f_learn_queries = report.Report.membership_queries;
    f_sul = (fun () -> s.Subject.factory ~seed:probe_seed ~workers:1 0);
  }

let f1_endpoints =
  lazy
    [
      f1_endpoint "tcp" ~seed:1L ~probe_seed:41L;
      f1_endpoint "dtls" ~seed:4L ~probe_seed:42L;
      f1_endpoint "quic:quiche-like" ~seed:3L ~probe_seed:43L;
      f1_endpoint "quic:google-like" ~seed:1L ~probe_seed:44L;
      f1_endpoint "quic:strict-retry" ~seed:2L ~probe_seed:45L;
    ]

let f1_identify tree sul =
  let engine = Prognosis_exec.Engine.create ~factory:(fun _ -> sul ()) () in
  Identify.run ~mq:(Prognosis_exec.Engine.membership engine) tree

let f1_fingerprint () =
  section "F1"
    "Open-world fingerprinting: model library + adaptive classification (new)";
  let module Jsonx = Prognosis_obs.Jsonx in
  let endpoints = Lazy.force f1_endpoints in
  let entries =
    List.map
      (fun e -> Library.entry_of_model ~name:e.f_name ~kind:e.f_kind e.f_model)
      endpoints
  in
  let tree_for kind =
    match
      Splitter.build
        (List.filter (fun (e : Library.entry) -> e.Library.kind = kind) entries)
    with
    | Ok tree -> tree
    | Error msg -> failwith ("F1: tree construction failed: " ^ msg)
  in
  (* one tree per kind, shared across the population *)
  let trees =
    List.map (fun k -> (k, tree_for k)) Persist.all_kinds
  in
  let identified =
    List.map
      (fun e -> (e, f1_identify (List.assoc e.f_kind trees) e.f_sul))
      endpoints
  in
  let rows =
    List.map
      (fun (e, (r : Identify.result)) ->
        let outcome =
          match r.Identify.outcome with
          | Identify.Known entry -> entry.Library.name
          | Identify.Novel _ -> "NOVEL"
        in
        [
          e.f_name; outcome;
          string_of_int r.Identify.words_asked;
          string_of_int e.f_learn_queries;
          Printf.sprintf "%.1f%%"
            (100. *. float_of_int r.Identify.words_asked
            /. float_of_int e.f_learn_queries);
        ])
      identified
  in
  print_table
    [ "endpoint"; "identified as"; "id queries"; "full-learn queries"; "cost" ]
    rows;
  List.iter
    (fun (e, (r : Identify.result)) ->
      match r.Identify.outcome with
      | Identify.Known entry when entry.Library.name = e.f_name -> ()
      | _ -> failwith ("F1: endpoint " ^ e.f_name ^ " misidentified"))
    identified;
  let total_id =
    List.fold_left (fun acc (_, r) -> acc + r.Identify.words_asked) 0 identified
  in
  let total_learn =
    List.fold_left (fun acc e -> acc + e.f_learn_queries) 0 endpoints
  in
  let ratio = float_of_int total_id /. float_of_int total_learn in
  Printf.printf
    "\nidentification: %d membership words for %d endpoints vs %d \
     full-learning queries (%.1f%% of full learning)\n"
    total_id (List.length endpoints) total_learn (100. *. ratio);
  if ratio > 0.10 then
    failwith "F1: identification cost exceeds 10% of full learning";
  (* The open-world path: a fault-injected TCP variant absent from the
     library must come back Novel, get learned in full, and extend the
     classification tree so the second encounter is cheap. *)
  let mutant = subject "tcp:no-challenge" in
  let mutated_sul () = mutant.Subject.factory ~seed:46L ~workers:1 0 in
  let tcp_tree = List.assoc Persist.Tcp_model trees in
  let first = f1_identify tcp_tree mutated_sul in
  (match first.Identify.outcome with
  | Identify.Novel e ->
      Printf.printf
        "\nmutated endpoint (tcp without challenge ACKs): novel at %s, \
         witness %s\n"
        e.Identify.stage
        (String.concat " " e.Identify.word)
  | Identify.Known entry ->
      failwith ("F1: mutant misidentified as " ^ entry.Library.name));
  let mutant_model, mutant_report =
    mutant.Subject.learn ~seed:46L ~algorithm:Learn.Ttt_tree ~exec:None
  in
  let novel_queries = mutant_report.Report.membership_queries in
  let mutant_entry =
    Library.entry_of_model ~name:"tcp:no-challenge" ~kind:Persist.Tcp_model
      mutant_model
  in
  let tcp_tree' =
    match Splitter.insert tcp_tree mutant_entry with
    | Ok (Splitter.Inserted t) -> t
    | Ok (Splitter.Duplicate _) -> failwith "F1: mutant collapsed to duplicate"
    | Error msg -> failwith ("F1: insert failed: " ^ msg)
  in
  let second = f1_identify tcp_tree' mutated_sul in
  (match second.Identify.outcome with
  | Identify.Known entry when entry.Library.name = "tcp:no-challenge" ->
      Printf.printf
        "after full learning (%d queries) + tree extension: re-identified as \
         %s in %d words\n"
        novel_queries entry.Library.name second.Identify.words_asked
  | _ -> failwith "F1: mutant not recognized after library extension");
  let population = List.length endpoints in
  Jsonx.Obj
    [
      ("schema", Jsonx.String "prognosis.fingerprint-bench/1");
      ("population", Jsonx.Int population);
      ("identified", Jsonx.Int population);
      ("novel_count", Jsonx.Int 1);
      ( "queries_per_identification",
        Jsonx.Float (float_of_int total_id /. float_of_int population) );
      ( "full_learning_queries",
        Jsonx.Float (float_of_int total_learn /. float_of_int population) );
      ("query_ratio_pct", Jsonx.Float (100. *. ratio));
      ("novel_learn_queries", Jsonx.Int novel_queries);
      ("novel_reidentify_words", Jsonx.Int second.Identify.words_asked);
    ]

(* --- F2: fleet identification over one shared cache per endpoint --- *)

module Service = Prognosis_service.Service

let f2_fleet () =
  section "F2"
    "Fleet identification: domain-parallel sessions over one shared cache \
     per endpoint (new)";
  let module Jsonx = Prognosis_obs.Jsonx in
  (* the F1 population doubles as an in-memory library: its entry
     names are exactly the service's subject spellings *)
  let entries =
    List.map
      (fun e -> Library.entry_of_model ~name:e.f_name ~kind:e.f_kind e.f_model)
      (Lazy.force f1_endpoints)
  in
  let lib = { Library.dir = "(in-memory)"; entries } in
  (* a 12-endpoint mixed population: every library subject appears at
     least once, the popular ones several times with distinct seeds *)
  let population =
    [
      ("tcp", 101L); ("quic:quiche-like", 102L); ("tcp", 103L);
      ("dtls", 104L); ("quic:google-like", 105L); ("tcp", 106L);
      ("quic:quiche-like", 107L); ("dtls", 108L); ("quic:strict-retry", 109L);
      ("tcp", 110L); ("quic:quiche-like", 111L); ("quic:google-like", 112L);
    ]
  in
  let jobs =
    List.map
      (fun (name, seed) -> Service.job ~seed Service.Identify (subject name))
      population
  in
  let run ~domains jobs =
    match Service.run ~domains ~library:lib ~jobs () with
    | Ok t -> t
    | Error e -> failwith ("F2: " ^ e)
  in
  (* gated counters come from the sequential fleet — deterministic in
     job order; the domain pool is timed separately below and feeds
     the advisory gate only *)
  let fleet = run ~domains:1 jobs in
  List.iter2
    (fun (name, _) (s : Service.session) ->
      match s.Service.outcome with
      | Service.Identified { Identify.outcome = Identify.Known e; _ }
        when e.Library.name = name ->
          ()
      | _ -> failwith ("F2: fleet misidentified " ^ name))
    population fleet.Service.sessions;
  let cold =
    List.fold_left
      (fun acc job ->
        acc + Service.total_membership_queries (run ~domains:1 [ job ]))
      0 jobs
  in
  let fleet_q = Service.total_membership_queries fleet in
  let ratio = float_of_int fleet_q /. float_of_int cold in
  print_table
    [ "population"; "fleet queries"; "12 cold runs"; "ratio"; "shared hits" ]
    [
      [
        string_of_int (List.length population);
        string_of_int fleet_q;
        string_of_int cold;
        Printf.sprintf "%.1f%%" (100. *. ratio);
        string_of_int (Service.shared_hits fleet);
      ];
    ];
  if ratio > 0.60 then
    failwith "F2: fleet identification exceeds 60% of cold-run queries";
  (* wall-clock throughput on the domain pool (advisory only: the
     counter gate never looks at wall-clock figures) *)
  let timed_domains = min 4 (Domain.recommended_domain_count ()) in
  let timed = run ~domains:timed_domains jobs in
  Printf.printf
    "\nfleet of %d sessions on %d domain(s): %.2f sessions/s (%.3fs)\n"
    (List.length population) timed.Service.domains
    timed.Service.sessions_per_sec timed.Service.elapsed_s;
  (* a known endpoint behind a lossy, duplicating channel: replica
     voting absorbs the faults and identification still lands Known *)
  let lossy_subject =
    let network =
      { Prognosis_sul.Network.loss = 0.01; duplicate = 0.01; corrupt = 0.0 }
    in
    Subject.make
      {
        tcp with
        Protocol.name = "tcp(lossy)";
        sul = (fun ~seed -> Prognosis_tcp.Tcp_adapter.sul ~network ~seed ());
      }
  in
  (* 3 replicas vote per word; 6 workers leave an escalation pool for
     the strict-majority re-run when the first three disagree *)
  let vote_config =
    {
      Service.default_config with
      Prognosis_exec.Engine.workers = 6;
      replicas = 3;
    }
  in
  let lossy =
    match
      Service.run ~domains:1 ~config:vote_config ~library:lib
        ~jobs:[ Service.job ~seed:7L Service.Identify lossy_subject ]
        ()
    with
    | Ok t -> t
    | Error e -> failwith ("F2: lossy sub-case: " ^ e)
  in
  (match lossy.Service.sessions with
  | [
   {
     Service.outcome =
       Service.Identified { Identify.outcome = Identify.Known e; _ };
     _;
   };
  ]
    when e.Library.name = "tcp" ->
      Printf.printf
        "lossy channel (1%% loss, 1%% duplication, 3-replica voting): \
         identified as %s\n"
        e.Library.name
  | _ -> failwith "F2: lossy endpoint not identified as tcp");
  Jsonx.Obj
    [
      ("schema", Jsonx.String "prognosis.service-bench/1");
      ("population", Jsonx.Int (List.length population));
      ("fleet", Jsonx.Obj [ ("membership_queries", Jsonx.Int fleet_q) ]);
      ("cold", Jsonx.Obj [ ("membership_queries", Jsonx.Int cold) ]);
      ("query_ratio_pct", Jsonx.Float (100. *. ratio));
      ("shared_cache_hits", Jsonx.Int (Service.shared_hits fleet));
      ("timed_domains", Jsonx.Int timed.Service.domains);
      ("sessions_per_sec", Jsonx.Float timed.Service.sessions_per_sec);
      ("service", Service.to_json fleet);
    ]

let figs () =
  section "FIGS" "Graphviz renderings of the learned models (paper Fig. 3, App. A)";
  let dir = "figures" in
  let write name dot =
    let path = Filename.concat dir name in
    Prognosis_analysis.Visualize.write_file ~path dot;
    Printf.printf "  %s\n" path
  in
  (match Prognosis_obs.Atomic_file.mkdir_p dir with
  | () ->
      let quic_dot run =
        Protocol.model_dot (quic Profile.quiche_like) (fst (Lazy.force run))
      in
      write "tcp_model.dot" (Protocol.model_dot tcp (fst (Lazy.force tcp_ttt)));
      write "quic_google_like.dot" (quic_dot quic_tolerant);
      write "quic_strict_retry.dot" (quic_dot quic_strict);
      write "quic_quiche_like.dot" (quic_dot quic_quiche);
      write "quic_issue1_diff.dot"
        (Prognosis_analysis.Visualize.diff_dot
           ~input_pp:Quic_study.Alphabet.pp
           ~output_pp:Quic_study.Alphabet.pp_output
           (fst (Lazy.force quic_tolerant))
           (fst (Lazy.force quic_strict)))
  | exception Sys_error _ ->
      print_endline "  (cannot create figures/ directory, skipped)")

(* --- Bechamel micro-benchmarks --- *)

let benchmarks () =
  section "BENCH" "Bechamel timings of the main pipelines";
  let open Bechamel in
  let open Toolkit in
  let test =
    Test.make_grouped ~name:"prognosis"
      [
        Test.make ~name:"tcp-learning"
          (Staged.stage (fun () -> ignore (Protocol.learn ~seed:bench_seed tcp)));
        Test.make ~name:"quic-learning"
          (Staged.stage (fun () ->
               ignore
                 (Protocol.learn ~seed:bench_seed (quic Profile.quiche_like))));
        Test.make ~name:"tcp-synthesis"
          (Staged.stage
             (let model = fst (Lazy.force tcp_ttt) in
              let adapter = Prognosis_tcp.Tcp_adapter.create ~seed:1L () in
              let words =
                Prognosis_tcp.Tcp_alphabet.
                  [ [ Syn; Ack; Ack_psh; Ack_psh ]; [ Syn; Ack_psh; Fin_ack ] ]
              in
              fun () ->
                ignore (Protocol.synthesize Tcp_study.fields adapter model words)));
        Test.make ~name:"nondet-check-100"
          (Staged.stage (fun () ->
               ignore (Quic_study.close_reset_rate ~seed:9L ~runs:100 Profile.mvfst_like)));
        Test.make ~name:"model-equivalence"
          (Staged.stage
             (let a = fst (Lazy.force quic_tolerant) in
              let b = fst (Lazy.force quic_strict) in
              fun () -> ignore (Model_diff.shortest_difference a b)));
        Test.make ~name:"w-method-suite"
          (Staged.stage
             (let m = fst (Lazy.force quic_tolerant) in
              fun () -> ignore (Testing.w_method ~extra_states:1 m)));
        Test.make ~name:"packed-stepping"
          (Staged.stage
             (let m = fst (Lazy.force quic_tolerant) in
              let suite = Testing.w_method ~extra_states:1 m in
              ignore (Mealy.pack m);
              fun () -> List.iter (fun w -> ignore (Mealy.run m w)) suite));
        Test.make ~name:"functional-stepping"
          (Staged.stage
             (let m = fst (Lazy.force quic_tolerant) in
              let suite = Testing.w_method ~extra_states:1 m in
              fun () ->
                List.iter (fun w -> ignore (Mealy.run_reference m w)) suite));
        Test.make ~name:"dtls-learning"
          (Staged.stage
             (fun () -> ignore (Protocol.learn ~seed:5L (Dtls_study.protocol ()))));
        Test.make ~name:"rpni-passive"
          (Staged.stage
             (let rng = Prognosis_sul.Rng.create 17L in
              let sul = Prognosis_tcp.Tcp_adapter.sul ~seed:31L () in
              let sample =
                Prognosis_learner.Passive.random_sample ~rng
                  ~inputs:Prognosis_tcp.Tcp_alphabet.all ~words:150 ~max_len:8 sul
              in
              fun () ->
                ignore
                  (Prognosis_learner.Passive.rpni
                     ~inputs:Prognosis_tcp.Tcp_alphabet.all ~default:[] sample)));
        Test.make ~name:"wfa-learning"
          (Staged.stage
             (let module Wfa = Prognosis_learner.Wfa in
              let skeleton = fst (Lazy.force tcp_ttt) in
              let weight ~state ~input:_ = if state >= 4 then 0.5 else 0.0 in
              let target = Wfa.expected_count ~skeleton ~weight in
              fun () ->
                let rng = Prognosis_sul.Rng.create 23L in
                let eq =
                  Wfa.random_eq ~rng ~mq:target ~tolerance:1e-6 ~max_tests:200
                    ~max_len:6 Prognosis_tcp.Tcp_alphabet.all
                in
                ignore
                  (Wfa.learn ~alphabet:Prognosis_tcp.Tcp_alphabet.all ~mq:target
                     ~eq ())));
      ]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:None () in
  let raw = Benchmark.all cfg instances test in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let estimate =
          match Analyze.OLS.estimates ols with
          | Some (v :: _) -> v
          | Some [] | None -> nan
        in
        let pretty =
          if estimate > 1e9 then Printf.sprintf "%.2f s" (estimate /. 1e9)
          else if estimate > 1e6 then Printf.sprintf "%.2f ms" (estimate /. 1e6)
          else if estimate > 1e3 then Printf.sprintf "%.2f us" (estimate /. 1e3)
          else Printf.sprintf "%.0f ns" estimate
        in
        (name, estimate, pretty) :: acc)
      results []
  in
  let rows = List.sort (fun (_, a, _) (_, b, _) -> compare a b) rows in
  print_table
    [ "benchmark"; "time/run" ]
    (List.map (fun (name, _, pretty) -> [ name; pretty ]) rows);
  rows

(* --- BENCH_run.json: machine-readable snapshot of the whole run ---

   Same schema family as the CLI's --metrics-out (prognosis.report/1
   objects plus a metrics snapshot), so the perf trajectory is
   trackable across PRs by diffing these files. *)

(* Two identical-seed learning runs must produce byte-identical
   deterministic counter blocks — the invariant the CI counter gate
   (report diff --counters-only, threshold 0) relies on. Checked here,
   at snapshot time, so a nondeterminism regression fails the bench
   run itself instead of surfacing as an inexplicable gate trip. *)
let determinism_guard () =
  let counters () =
    let _, r = Protocol.learn ~seed:bench_seed (quic Profile.quiche_like) in
    ( r.Report.states,
      r.Report.transitions,
      r.Report.membership_queries,
      r.Report.membership_symbols,
      r.Report.test_words,
      r.Report.equivalence_rounds )
  in
  if counters () <> counters () then
    failwith
      "snapshot: two identical-seed quic runs disagree on deterministic \
       counters";
  print_endline
    "determinism guard: repeated identical-seed runs produce identical \
     counter blocks"

let write_snapshot ~fingerprint ~service bench_rows =
  let module Jsonx = Prognosis_obs.Jsonx in
  let module Metrics = Prognosis_obs.Metrics in
  determinism_guard ();
  let report r = Report.to_json r in
  let reports =
    [
      report (snd (Lazy.force tcp_ttt));
      report (snd (Lazy.force tcp_lstar));
      report (snd (Lazy.force quic_tolerant));
      report (snd (Lazy.force quic_strict));
      report (snd (Lazy.force quic_quiche));
      report (snd (Lazy.force tcp_pooled));
      report (snd (Lazy.force quic_pooled));
    ]
  in
  (* The A7 numbers as a dedicated block: per-substrate engine stats
     (each a schema-versioned prognosis.exec/1 object) plus the derived
     savings percentage against the no-reuse sequential baseline. *)
  let exec_block =
    let entry (e : Jsonx.t) =
      let actual = exec_field e "resets" + exec_field e "steps" in
      let baseline =
        exec_field e "baseline_resets" + exec_field e "baseline_steps"
      in
      let pct =
        if baseline = 0 then 0.
        else 100. *. (1. -. (float_of_int actual /. float_of_int baseline))
      in
      (e, pct)
    in
    let tcp, tcp_pct =
      entry (Option.get (snd (Lazy.force tcp_pooled)).Report.exec)
    in
    let quic, quic_pct =
      entry (Option.get (snd (Lazy.force quic_pooled)).Report.exec)
    in
    Jsonx.Obj
      [
        ("schema", Jsonx.String "prognosis.exec-ablation/1");
        ("tcp", tcp);
        ("tcp_saved_pct", Jsonx.Float tcp_pct);
        ("quic", quic);
        ("quic_saved_pct", Jsonx.Float quic_pct);
      ]
  in
  let benchmarks =
    List.map
      (fun (name, estimate_ns, _) -> (name, Jsonx.Float estimate_ns))
      (List.sort (fun (a, _, _) (b, _, _) -> compare a b) bench_rows)
  in
  let json =
    Jsonx.Obj
      [
        (* /4: adds the "service" block (F2 fleet identification) *)
        ("schema", Jsonx.String "prognosis.bench/4");
        ("reports", Jsonx.List reports);
        ("exec", exec_block);
        ("fingerprint", fingerprint);
        ("service", service);
        ("benchmarks_ns_per_run", Jsonx.Obj benchmarks);
        ("metrics", Metrics.to_json Metrics.default);
      ]
  in
  let path = "BENCH_run.json" in
  Prognosis_obs.Atomic_file.write ~path (Jsonx.to_string json ^ "\n");
  Printf.printf "snapshot written to %s\n" path

let () =
  print_endline "Prognosis reproduction: experiment harness";
  print_endline "(paper: Ferreira et al., SIGCOMM 2021; all numbers seeded/deterministic)";
  e1 ();
  e2 ();
  e3 ();
  e4 ();
  e5 ();
  e6 ();
  e7 ();
  e8 ();
  e9 ();
  a1_algorithm_and_cache ();
  a2_equivalence_oracles ();
  a3_tcp_server_config ();
  a4_passive_hybrid ();
  a5_nondet_sensitivity ();
  a6_alphabet_size ();
  a7_exec ();
  a8_loss_robustness ();
  a9_packed ();
  x1_third_protocol ();
  x2_quantitative_models ();
  x3_client_role ();
  x4_interop_matrix ();
  let fingerprint = f1_fingerprint () in
  let service = f2_fleet () in
  figs ();
  let bench_rows = benchmarks () in
  write_snapshot ~fingerprint ~service bench_rows;
  print_newline ()
