(* The Prognosis command-line interface: learn models of the bundled
   protocol implementations, compare them, run the nondeterminism
   check, synthesize register machines and check temporal properties —
   the same analyses the paper's evaluation performs (§6). *)

open Cmdliner
module Mealy = Prognosis_automata.Mealy
module Learn = Prognosis_learner.Learn
open Prognosis
module Subject = Prognosis_service.Subject

let profile_of_name = Subject.profile_of_name

(* --- common options --- *)

let setup_logs verbose =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (if verbose then Some Logs.Info else Some Logs.Warning)

let verbose =
  let doc = "Log learning progress to stderr." in
  Term.(const setup_logs $ Arg.(value & flag & info [ "verbose"; "v" ] ~doc))

let seed =
  let doc = "Seed for every pseudo-random choice (fully reproducible runs)." in
  Arg.(value & opt int64 1L & info [ "seed" ] ~docv:"N" ~doc)

let algorithm =
  let doc = "Learning algorithm: $(b,ttt) or $(b,lstar)." in
  let algo_conv = Arg.enum [ ("ttt", Learn.Ttt_tree); ("lstar", Learn.L_star) ] in
  Arg.(value & opt algo_conv Learn.Ttt_tree & info [ "algorithm" ] ~docv:"ALGO" ~doc)

let protocols = [ ("tcp", `Tcp); ("quic", `Quic); ("dtls", `Dtls) ]

let protocol =
  let doc = "Protocol to analyze: $(b,tcp), $(b,quic) or $(b,dtls)." in
  Arg.(value & opt (enum protocols) `Tcp & info [ "protocol" ] ~docv:"PROTO" ~doc)

let profile_arg =
  let doc = "QUIC server profile (quiche-like, google-like, mvfst-like, strict-retry, ncid-buggy)." in
  Arg.(value & opt string "quiche-like" & info [ "profile" ] ~docv:"NAME" ~doc)

let dot_out =
  let doc = "Write a Graphviz rendering of the learned model to $(docv)." in
  Arg.(value & opt (some string) None & info [ "dot" ] ~docv:"FILE" ~doc)

let or_die = function
  | Ok v -> v
  | Error msg ->
      prerr_endline ("error: " ^ msg);
      exit 1

(* Every protocol joins through one descriptor; commands that work for
   any protocol pick one and run a single generic body. *)
type descriptor = D : ('i, 'o) Protocol.t -> descriptor

let descriptor protocol ~profile_name =
  match protocol with
  | `Tcp -> D (Tcp_study.protocol ())
  | `Quic -> D (Quic_study.protocol (or_die (profile_of_name profile_name)))
  | `Dtls -> D (Dtls_study.protocol ())

(* --- learn (and resume) --- *)

let or_die_load r = or_die (Result.map_error Persist.load_error_to_string r)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let read_file path =
  match open_in_bin path with
  | exception Sys_error msg -> Error msg
  | ic ->
      Ok
        (Fun.protect
           ~finally:(fun () -> close_in ic)
           (fun () -> really_input_string ic (in_channel_length ic)))

let algo_name = function Learn.Ttt_tree -> "ttt" | Learn.L_star -> "lstar"
let algo_of_name = function "lstar" -> Learn.L_star | _ -> Learn.Ttt_tree

(* Every command that sizes a worker pool or a sharded cache checks the
   sizes here first, so a bad flag (or manifest entry) is a usage error
   instead of an [Invalid_argument] escaping from the engine or the
   cache. *)
let check_pool ?(shards = 1) ~workers ~replicas () =
  or_die
    (if workers < 1 then
       Error (Printf.sprintf "workers must be at least 1 (got %d)" workers)
     else if replicas < 1 || replicas > workers then
       Error
         (Printf.sprintf "replicas must be between 1 and workers (%d), got %d"
            workers replicas)
     else if shards < 1 then
       Error (Printf.sprintf "shards must be at least 1 (got %d)" shards)
     else Ok ())

let exec_of_flags ~workers ~batch ~replicas =
  (* Any exec-related flag routes membership queries through the
     query-execution engine; plain invocations keep the historical
     sequential path. *)
  check_pool ~workers ~replicas ();
  if workers > 1 || batch || replicas > 1 then
    Some
      {
        Prognosis_exec.Engine.default with
        Prognosis_exec.Engine.workers;
        batch;
        replicas;
      }
  else None

(* The checkpoint directory carries a manifest describing the run it
   belongs to, so `prognosis resume` needs nothing but the directory:
   the protocol, profile, seed and exec flags all come back from it.
   Keys the reader does not know are ignored (manifests from older
   versions may carry a [parallel] flag). *)

type manifest = {
  m_protocol : [ `Tcp | `Quic | `Dtls ];
  m_profile : string;
  m_seed : int64;
  m_algorithm : Learn.algorithm;
  m_workers : int;
  m_batch : bool;
  m_replicas : int;
  m_every : int;
}

let manifest_path dir = Filename.concat dir "manifest.json"

let write_manifest ~dir m =
  let module J = Prognosis_obs.Jsonx in
  let proto = fst (List.find (fun (_, p) -> p = m.m_protocol) protocols) in
  let json =
    J.Obj
      [
        ("schema", J.String "prognosis.checkpoint-manifest/1");
        ("protocol", J.String proto);
        ("profile", J.String m.m_profile);
        ("seed", J.String (Int64.to_string m.m_seed));
        ("algorithm", J.String (algo_name m.m_algorithm));
        ("workers", J.Int m.m_workers);
        ("batch", J.Bool m.m_batch);
        ("replicas", J.Int m.m_replicas);
        ("every", J.Int m.m_every);
      ]
  in
  mkdir_p dir;
  let path = manifest_path dir in
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  output_string oc (J.to_string json);
  output_char oc '\n';
  close_out oc;
  Sys.rename tmp path

let read_manifest dir =
  let module J = Prognosis_obs.Jsonx in
  let path = manifest_path dir in
  match read_file path with
  | Error msg -> Error ("no checkpoint manifest: " ^ msg)
  | Ok text -> (
      match J.of_string_opt text with
      | None -> Error (path ^ ": malformed manifest")
      | Some j -> (
          let str k = Option.bind (J.member k j) J.to_string_opt in
          let num k = Option.bind (J.member k j) J.to_int_opt in
          let flag k = match J.member k j with Some (J.Bool b) -> b | _ -> false in
          let protocol =
            match str "protocol" with
            | Some p -> (
                match List.assoc_opt p protocols with
                | Some p -> Ok p
                | None -> Error (path ^ ": unknown protocol " ^ p))
            | None -> Error (path ^ ": missing protocol")
          in
          match (protocol, Option.bind (str "seed") Int64.of_string_opt) with
          | Error e, _ -> Error e
          | Ok _, None -> Error (path ^ ": missing or malformed seed")
          | Ok m_protocol, Some m_seed ->
              Ok
                {
                  m_protocol;
                  m_profile = Option.value ~default:"quiche-like" (str "profile");
                  m_seed;
                  m_algorithm =
                    algo_of_name (Option.value ~default:"ttt" (str "algorithm"));
                  m_workers = Option.value ~default:1 (num "workers");
                  m_batch = flag "batch";
                  m_replicas = Option.value ~default:1 (num "replicas");
                  m_every = Option.value ~default:500 (num "every");
                }))

let run_learn ~protocol ~profile_name ~seed ~algorithm ~exec ~checkpoint
    ~dot_out ~save_out ~text_out ~trace_out ~metrics_out ~flight_out
    ~openmetrics_out =
  (* Telemetry: zero the process-wide registry so the metrics snapshot
     describes exactly this run, and tee spans into a JSONL file and/or
     a flight-recorder ring when asked (docs/OBSERVABILITY.md documents
     the formats). *)
  Prognosis_obs.Metrics.reset Prognosis_obs.Metrics.default;
  let tracing = trace_out <> None || flight_out <> None in
  (match (trace_out, flight_out) with
  | None, None -> ()
  | trace_out, flight_out ->
      let file_sink =
        Option.map
          (fun path ->
            try Prognosis_obs.Trace.Sink.jsonl_file path
            with Sys_error msg ->
              or_die (Error ("cannot open trace file: " ^ msg)))
          trace_out
      in
      let ring_sink =
        Option.map
          (fun path ->
            (* the ring dumps at every process exit — normal, exit 3 on
               budget exhaustion, or SIGTERM/SIGINT — so a killed run
               still leaves its last events behind *)
            let ring = Prognosis_obs.Ring.create () in
            Prognosis_obs.Ring.install_flight ~path ring;
            Prognosis_obs.Ring.sink ring)
          flight_out
      in
      let sink =
        match (file_sink, ring_sink) with
        | Some f, Some r -> Prognosis_obs.Trace.Sink.tee f r
        | Some f, None -> f
        | None, Some r -> r
        | None, None -> assert false
      in
      Prognosis_obs.Trace.set_sink sink);
  (* report, dot rendering, binary save, canonical text save *)
  let report, dot, save, save_text =
    match
      Fun.protect
        ~finally:(fun () -> if tracing then Prognosis_obs.Trace.unset_sink ())
        (fun () ->
          try
            match descriptor protocol ~profile_name with
            | D d ->
                let model, report =
                  Protocol.learn ~seed ~algorithm ?exec ?checkpoint d
                in
                ( report,
                  Protocol.model_dot d model,
                  (fun path -> Persist.save ~path d.Protocol.kind model),
                  fun path ->
                    Persist.save_text ~path d.Protocol.kind
                      ~input_to_string:d.Protocol.input_to_string
                      ~output_to_string:d.Protocol.output_to_string model )
          with
          | Prognosis_learner.Cache.Conflict ->
              or_die
                (Error
                   "the implementation answered the same query differently \
                    across runs — learning pauses, as in the paper's \
                    nondeterminism check (§5). Investigate with `prognosis \
                    nondet`.")
          | Prognosis_sul.Nondet.Nondeterministic_sul msg ->
              or_die
                (Error
                   ("nondeterministic implementation: " ^ msg
                  ^ ". Investigate with `prognosis nondet`.")))
    with
    | outputs -> outputs
    | exception Prognosis_learner.Checkpoint.Budget_exhausted { queries; path } ->
        Format.eprintf "interrupted: query budget reached after %d SUL queries@."
          queries;
        Format.eprintf "checkpoint saved to %s@." path;
        Format.eprintf "resume with: prognosis resume --checkpoint %s@."
          (Filename.dirname path);
        exit 3
  in
  Format.printf "%a@." Report.pp report;
  Format.printf "traces of length <= 10 over this alphabet: %d@."
    (Report.trace_count report ~max_len:10);
  (match report.Report.exec with
  | None -> ()
  | Some e ->
      let n k =
        match Prognosis_obs.Jsonx.member k e with
        | Some v -> Option.value ~default:0 (Prognosis_obs.Jsonx.to_int_opt v)
        | None -> 0
      in
      Format.printf
        "exec: %d workers, %d runs (%d resumed), %d resets / %d steps (saved \
         %d resets / %d steps vs no-reuse sequential)@."
        (n "workers") (n "runs") (n "resumed_runs") (n "resets") (n "steps")
        (n "saved_resets") (n "saved_steps");
      if n "quarantines" > 0 then
        Format.printf "exec: %d worker quarantine(s), %d disagreement(s)@."
          (n "quarantines") (n "disagreements"));
  (match trace_out with
  | None -> ()
  | Some path -> Format.printf "trace written to %s@." path);
  (match flight_out with
  | None -> ()
  | Some path -> Format.printf "flight recorder armed (dumps to %s)@." path);
  (match metrics_out with
  | None -> ()
  | Some path ->
      (try
         Prognosis_obs.Atomic_file.write ~path
           (Report.to_json_string ~metrics:Prognosis_obs.Metrics.default report
           ^ "\n")
       with Sys_error msg ->
         or_die (Error ("cannot write metrics file: " ^ msg)));
      Format.printf "metrics written to %s@." path);
  (match openmetrics_out with
  | None -> ()
  | Some path ->
      (try Prognosis_obs.Openmetrics.write_file Prognosis_obs.Metrics.default path
       with Sys_error msg ->
         or_die (Error ("cannot write openmetrics file: " ^ msg)));
      Format.printf "openmetrics written to %s@." path);
  (match dot_out with
  | None -> ()
  | Some path ->
      Prognosis_analysis.Visualize.write_file ~path dot;
      Format.printf "model written to %s@." path);
  (match save_out with
  | None -> ()
  | Some path ->
      save path;
      Format.printf "model saved to %s (reload with `prognosis replay`)@." path);
  match text_out with
  | None -> ()
  | Some path ->
      save_text path;
      Format.printf "canonical model written to %s@." path

let do_learn () protocol profile_name seed algorithm workers batch replicas
    dot_out save_out text_out trace_out metrics_out flight_out
    openmetrics_out checkpoint_dir checkpoint_every query_budget resume =
  let exec = exec_of_flags ~workers ~batch ~replicas in
  if Option.is_some query_budget && Option.is_none checkpoint_dir then
    or_die (Error "--query-budget needs --checkpoint DIR");
  if resume && Option.is_none checkpoint_dir then
    or_die (Error "--resume needs --checkpoint DIR");
  let checkpoint =
    Option.map
      (fun dir ->
        Prognosis_learner.Checkpoint.spec ~every:checkpoint_every
          ?budget:query_budget ~resume ~dir ())
      checkpoint_dir
  in
  Option.iter
    (fun dir ->
      write_manifest ~dir
        {
          m_protocol = protocol;
          m_profile = profile_name;
          m_seed = seed;
          m_algorithm = algorithm;
          m_workers = workers;
          m_batch = batch;
          m_replicas = replicas;
          m_every = checkpoint_every;
        })
    checkpoint_dir;
  run_learn ~protocol ~profile_name ~seed ~algorithm ~exec ~checkpoint ~dot_out
    ~save_out ~text_out ~trace_out ~metrics_out ~flight_out ~openmetrics_out

let save_out =
  let doc = "Persist the learned model to $(docv) for later replay." in
  Arg.(value & opt (some string) None & info [ "save" ] ~docv:"FILE" ~doc)

let text_out =
  let doc =
    "Write the canonical $(b,prognosis.model/1) text serialization of the \
     learned model to $(docv) (portable, diffable; the format the golden \
     regression gate compares)."
  in
  Arg.(value & opt (some string) None & info [ "save-text" ] ~docv:"FILE" ~doc)

let checkpoint_dir_arg =
  let doc =
    "Snapshot the run's query cache into $(docv) so a crashed or aborted run \
     can be resumed (see `prognosis resume`)."
  in
  Arg.(value & opt (some string) None & info [ "checkpoint" ] ~docv:"DIR" ~doc)

let checkpoint_every_arg =
  let doc = "SUL queries between periodic checkpoint snapshots." in
  Arg.(value & opt int 500 & info [ "checkpoint-every" ] ~docv:"N" ~doc)

let query_budget_arg =
  let doc =
    "Abort the run (exit 3) after $(docv) cumulative SUL queries, snapshotting \
     first — a controlled crash for testing resume. Needs --checkpoint."
  in
  Arg.(value & opt (some int) None & info [ "query-budget" ] ~docv:"N" ~doc)

let resume_flag =
  let doc = "Pre-warm the query cache from the checkpoint before learning." in
  Arg.(value & flag & info [ "resume" ] ~doc)

let trace_out =
  let doc =
    "Write a JSONL span trace of the run (learner rounds, membership \
     queries, network fault events) to $(docv)."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let metrics_out =
  let doc =
    "Write the machine-readable report with a metrics snapshot (query-latency \
     histogram quantiles, cache hit rate, fault counters) to $(docv)."
  in
  Arg.(value & opt (some string) None & info [ "metrics-out" ] ~docv:"FILE" ~doc)

let flight_out =
  let doc =
    "Arm the flight recorder: keep the most recent trace events in a bounded \
     in-memory ring and dump them to $(docv) when the process exits — \
     normally, on a --query-budget abort, or on SIGTERM/SIGINT — so a \
     crashed or killed run keeps its last moments. Enables tracing, like \
     --trace."
  in
  Arg.(value & opt (some string) None & info [ "flight" ] ~docv:"FILE" ~doc)

let openmetrics_out =
  let doc =
    "Export the end-of-run metrics snapshot in OpenMetrics / Prometheus text \
     format to $(docv) (per-worker and per-study labelled series included)."
  in
  Arg.(value & opt (some string) None & info [ "openmetrics" ] ~docv:"FILE" ~doc)

let workers_arg =
  let doc =
    "Size of the query-execution worker pool: $(docv) independent SUL \
     instances answer membership queries (with per-worker resume across \
     shared prefixes). 1 keeps the sequential oracle unless another exec \
     flag is given."
  in
  Arg.(value & opt int 1 & info [ "workers" ] ~docv:"N" ~doc)

let batch_arg =
  let doc =
    "Let equivalence oracles submit whole query batches to the engine, \
     which dedups them and answers prefix-subsumed words from a single \
     longer run."
  in
  Arg.(value & flag & info [ "batch" ] ~doc)

let replicas_arg =
  let doc =
    "Cross-validate every SUL run on $(docv) distinct workers, majority \
     vote on disagreement, quarantining workers that keep losing votes."
  in
  Arg.(value & opt int 1 & info [ "replicas" ] ~docv:"R" ~doc)

let learn_cmd =
  let doc = "Learn a Mealy-machine model of a protocol implementation." in
  Cmd.v
    (Cmd.info "learn" ~doc)
    Term.(
      const do_learn $ verbose $ protocol $ profile_arg $ seed $ algorithm
      $ workers_arg $ batch_arg $ replicas_arg $ dot_out
      $ save_out $ text_out $ trace_out $ metrics_out $ flight_out
      $ openmetrics_out $ checkpoint_dir_arg $ checkpoint_every_arg
      $ query_budget_arg $ resume_flag)

(* --- resume --- *)

let do_resume () dir query_budget dot_out save_out text_out trace_out
    metrics_out flight_out openmetrics_out =
  let m = or_die (read_manifest dir) in
  let exec =
    exec_of_flags ~workers:m.m_workers ~batch:m.m_batch ~replicas:m.m_replicas
  in
  let checkpoint =
    Some
      (Prognosis_learner.Checkpoint.spec ~every:m.m_every ?budget:query_budget
         ~resume:true ~dir ())
  in
  run_learn ~protocol:m.m_protocol ~profile_name:m.m_profile ~seed:m.m_seed
    ~algorithm:m.m_algorithm ~exec ~checkpoint ~dot_out ~save_out ~text_out
    ~trace_out ~metrics_out ~flight_out ~openmetrics_out

let resume_cmd =
  let doc =
    "Resume an interrupted learning run from its checkpoint directory. The \
     protocol, profile, seed and exec flags are read back from the \
     directory's manifest; the query cache is pre-warmed from the last \
     snapshot, so every pre-crash query is answered without touching the \
     implementation."
  in
  let dir =
    Arg.(
      required
      & opt (some string) None
      & info [ "checkpoint" ] ~docv:"DIR"
          ~doc:"Checkpoint directory from `learn --checkpoint`.")
  in
  Cmd.v
    (Cmd.info "resume" ~doc)
    Term.(
      const do_resume $ verbose $ dir $ query_budget_arg $ dot_out $ save_out
      $ text_out $ trace_out $ metrics_out $ flight_out $ openmetrics_out)

(* --- compare --- *)

let do_compare () profile_a profile_b seed dot_out =
  let pa = or_die (profile_of_name profile_a) in
  let pb = or_die (profile_of_name profile_b) in
  let a, _ = Protocol.learn ~seed (Quic_study.protocol pa) in
  let b, _ = Protocol.learn ~seed:(Int64.add seed 31L) (Quic_study.protocol pb) in
  Format.printf "%a@."
    (Prognosis_analysis.Model_diff.pp_summary
       ~input_pp:Quic_study.Alphabet.pp
       ~output_pp:Quic_study.Alphabet.pp_output)
    (Prognosis_analysis.Model_diff.summarize a b);
  match dot_out with
  | None -> ()
  | Some path ->
      let dot =
        Prognosis_analysis.Visualize.diff_dot
          ~input_pp:Quic_study.Alphabet.pp
          ~output_pp:Quic_study.Alphabet.pp_output a b
      in
      Prognosis_analysis.Visualize.write_file ~path dot;
      Format.printf "diff written to %s@." path

let compare_cmd =
  let doc = "Learn two QUIC profiles and compare their models." in
  let profile_b =
    Arg.(value & opt string "strict-retry"
         & info [ "against" ] ~docv:"NAME" ~doc:"Second profile.")
  in
  Cmd.v
    (Cmd.info "compare" ~doc)
    Term.(const do_compare $ verbose $ profile_arg $ profile_b $ seed $ dot_out)

(* --- nondet --- *)

let do_nondet () profile_name seed runs =
  let profile = or_die (profile_of_name profile_name) in
  let rate = Quic_study.close_reset_rate ~seed ~runs profile in
  Format.printf
    "profile %s: %.1f%% of post-close probes answered with a Stateless Reset \
     (%d runs)@."
    profile_name (100.0 *. rate) runs;
  if rate > 0.01 && rate < 0.99 then
    Format.printf
      "NONDETERMINISTIC reset behaviour: inconsistent RESET policy with no \
       back-off (the paper's Issue 2, a DoS vector).@."
  else Format.printf "consistent reset policy.@."

let nondet_cmd =
  let doc = "Measure post-close Stateless Reset behaviour (Issue 2)." in
  let runs =
    Arg.(value & opt int 200 & info [ "runs" ] ~docv:"N" ~doc:"Probe count.")
  in
  Cmd.v (Cmd.info "nondet" ~doc) Term.(const do_nondet $ verbose $ profile_arg $ seed $ runs)

(* --- synthesize --- *)

let do_synthesize () protocol profile_name seed =
  match protocol with
  | `Dtls ->
      or_die (Error "register synthesis is available for tcp and quic targets")
  | `Tcp -> begin
      let model, _ = Protocol.learn ~seed (Tcp_study.protocol ()) in
      let words =
        Prognosis_tcp.Tcp_alphabet.
          [ [ Syn; Ack; Ack_psh; Ack_psh ]; [ Syn; Ack_psh; Fin_ack ]; [ Syn; Ack; Fin_ack; Ack ] ]
      in
      match
        Protocol.synthesize Tcp_study.fields
          (Prognosis_tcp.Tcp_adapter.create ~seed ())
          model words
      with
      | Error e -> or_die (Error e)
      | Ok machine ->
          print_string
            (Prognosis_synthesis.Ext_mealy.to_dot
               ~input_pp:Prognosis_tcp.Tcp_alphabet.pp
               ~output_pp:Prognosis_tcp.Tcp_alphabet.pp_output
               ~names_in:Tcp_study.fields.Protocol.names_in
               ~names_out:Tcp_study.fields.Protocol.names_out machine)
    end
  | `Quic -> begin
      let profile = or_die (profile_of_name profile_name) in
      let model, _ = Protocol.learn ~seed (Quic_study.protocol profile) in
      let adapter, _ = Prognosis_quic.Quic_adapter.create ~profile ~seed () in
      let words =
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
          ]
      in
      match Protocol.synthesize Quic_study.fields adapter model words with
      | Error e -> or_die (Error e)
      | Ok machine -> (
          match Quic_study.sdb_verdict machine with
          | `Constant c ->
              Format.printf
                "STREAM_DATA_BLOCKED Maximum Stream Data is the CONSTANT %d — \
                 the paper's Issue 4 when 0.@."
                c
          | `Symbolic ->
              Format.printf
                "STREAM_DATA_BLOCKED Maximum Stream Data tracks the blocked \
                 offset (compliant).@."
          | `Unobserved ->
              Format.printf "no STREAM_DATA_BLOCKED frames observed.@.")
    end

let synthesize_cmd =
  let doc = "Synthesize a register-extended model from Oracle-Table traces." in
  Cmd.v
    (Cmd.info "synthesize" ~doc)
    Term.(const do_synthesize $ verbose $ protocol $ profile_arg $ seed)

(* --- check --- *)

let do_check () profile_name seed =
  let profile = or_die (profile_of_name profile_name) in
  let model, _ = Protocol.learn ~seed (Quic_study.protocol profile) in
  let module Safety = Prognosis_analysis.Safety in
  (* Model-level property: once the server answered with
     CONNECTION_CLOSE, it never sends application data again. *)
  let has_frame kind (out : Quic_study.Alphabet.output) =
    List.exists
      (fun (a : Quic_study.Alphabet.apacket) ->
        List.mem kind a.Quic_study.Alphabet.frames)
      out
  in
  let prop =
    Safety.after_always "no stream data after CONNECTION_CLOSE"
      ~trigger:(fun (_, o) -> has_frame Prognosis_quic.Frame.K_connection_close o)
      ~then_:(fun (_, o) -> not (has_frame Prognosis_quic.Frame.K_stream o))
  in
  (match Safety.check prop model with
  | None -> Format.printf "[ok]   %s@." (Safety.name prop)
  | Some word ->
      Format.printf "[FAIL] %s; witness: %s@." (Safety.name prop)
        (String.concat " " (List.map Quic_study.Alphabet.to_string word)));
  (* Concrete-trace properties. *)
  let words =
    Quic_study.Alphabet.
      [ [ Initial_crypto; Initial_crypto; Handshake_ack_crypto; Short_ack_stream ] ]
  in
  let adapter, client = Prognosis_quic.Quic_adapter.create ~profile ~seed () in
  let pns = Quic_study.packet_number_sequences adapter words in
  List.iter
    (fun seq ->
      match Safety.strictly_increasing seq with
      | Safety.Holds -> Format.printf "[ok]   packet numbers always increasing@."
      | Safety.Violated _ as v ->
          Format.printf "[FAIL] packet numbers: %a@." Safety.pp_verdict v)
    pns;
  let ncids = Prognosis_quic.Quic_client.ncid_sequence_numbers client in
  if ncids <> [] then
    match Safety.increases_by ~stride:1 ncids with
    | Safety.Holds ->
        Format.printf "[ok]   connection-id sequence numbers increase by 1@."
    | Safety.Violated _ as v ->
        Format.printf "[FAIL] connection-id sequence numbers: %a@."
          Safety.pp_verdict v

let check_cmd =
  let doc = "Check temporal and numeric properties of a QUIC profile." in
  Cmd.v (Cmd.info "check" ~doc) Term.(const do_check $ verbose $ profile_arg $ seed)

(* --- difftest --- *)

let do_difftest () profile_a profile_b seed =
  let pa = or_die (profile_of_name profile_a) in
  let pb = or_die (profile_of_name profile_b) in
  let model_a, _ = Protocol.learn ~seed (Quic_study.protocol pa) in
  let sul_b =
    Prognosis_quic.Quic_adapter.sul ~profile:pb ~seed:(Int64.add seed 31L) ()
  in
  let module Diff_test = Prognosis_analysis.Diff_test in
  Format.printf
    "model of %s drives %d conformance tests against a live %s instance@."
    profile_a
    (Diff_test.suite_size model_a)
    profile_b;
  match Diff_test.model_guided ~max_mismatches:5 ~model:model_a sul_b with
  | [] -> Format.printf "no behavioural differences found.@."
  | mismatches ->
      Format.printf "%d mismatching test cases (showing replayable witnesses):@."
        (List.length mismatches);
      List.iter
        (fun m ->
          Format.printf "  on: %s@."
            (String.concat " "
               (List.map Quic_study.Alphabet.to_string m.Diff_test.word));
          Format.printf "    %-12s: %s@." profile_a
            (String.concat " "
               (List.map Quic_study.Alphabet.output_to_string m.Diff_test.outputs_a));
          Format.printf "    %-12s: %s@." profile_b
            (String.concat " "
               (List.map Quic_study.Alphabet.output_to_string m.Diff_test.outputs_b)))
        mismatches

let difftest_cmd =
  let doc =
    "Model-guided differential testing: a learned model of one QUIC profile \
     generates a conformance suite executed against another (paper §7)."
  in
  let profile_b =
    Arg.(value & opt string "strict-retry"
         & info [ "against" ] ~docv:"NAME" ~doc:"Implementation under test.")
  in
  Cmd.v
    (Cmd.info "difftest" ~doc)
    Term.(const do_difftest $ verbose $ profile_arg $ profile_b $ seed)

(* --- render --- *)

let do_render () seed dir =
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let write name dot =
    let path = Filename.concat dir name in
    Prognosis_analysis.Visualize.write_file ~path dot;
    Format.printf "%s@." path
  in
  List.iter
    (fun (name, D d) ->
      write name (Protocol.model_dot d (fst (Protocol.learn ~seed d))))
    ([ ("tcp_model.dot", D (Tcp_study.protocol ())) ]
    @ List.map
        (fun profile ->
          ( Printf.sprintf "quic_%s.dot"
              (String.map
                 (fun c -> if c = '-' then '_' else c)
                 profile.Prognosis_quic.Quic_profile.name),
            D (Quic_study.protocol profile) ))
        Prognosis_quic.Quic_profile.[ quiche_like; google_like; strict_retry ]
    @ [ ("dtls_model.dot", D (Dtls_study.protocol ())) ])

let render_cmd =
  let doc = "Render every learned model to Graphviz files (paper App. A figures)." in
  let dir =
    Arg.(value & opt string "figures" & info [ "out" ] ~docv:"DIR" ~doc:"Output directory.")
  in
  Cmd.v (Cmd.info "render" ~doc) Term.(const do_render $ verbose $ seed $ dir)

(* --- replay --- *)

let parse_word all to_string tokens =
  List.map
    (fun token ->
      match Array.to_list all |> List.find_opt (fun s -> to_string s = token) with
      | Some s -> s
      | None ->
          or_die
            (Error
               (Printf.sprintf "unknown symbol %S (known: %s)" token
                  (String.concat ", "
                     (Array.to_list (Array.map to_string all))))))
    tokens

let do_replay () protocol model_path word =
  let tokens =
    String.split_on_char ' ' word |> List.filter (fun t -> t <> "")
  in
  if tokens = [] then or_die (Error "empty word; pass --word \"SYM SYM ...\"");
  (* the profile only picks a live implementation, which replay never runs *)
  match descriptor protocol ~profile_name:"quiche-like" with
  | D d ->
      let model = or_die_load (Protocol.load d ~path:model_path) in
      (* the model's own alphabet: a model learned over fewer symbols
         than the protocol offers has no transition on the others *)
      let print = d.Protocol.input_to_string in
      let inputs = Mealy.inputs model in
      let input = parse_word inputs print tokens in
      let width =
        Array.fold_left (fun w i -> max w (String.length (print i))) 0 inputs
      in
      List.iter2
        (fun i o ->
          Format.printf "%-*s -> %s@." width (print i)
            (d.Protocol.output_to_string o))
        input (Mealy.run model input)

let replay_cmd =
  let doc =
    "Replay an abstract input word through a previously saved model (no live \
     implementation needed)."
  in
  let model_path =
    Arg.(required & opt (some string) None
         & info [ "model" ] ~docv:"FILE" ~doc:"Model file from `learn --save`.")
  in
  let word =
    Arg.(required & opt (some string) None
         & info [ "word" ] ~docv:"SYMS" ~doc:"Space-separated abstract symbols.")
  in
  Cmd.v
    (Cmd.info "replay" ~doc)
    Term.(const do_replay $ verbose $ protocol $ model_path $ word)

(* --- ci: the golden-model regression gate --- *)

(* Each target learns one golden subject at the string level, so the
   gate below works uniformly on (string, string) machines whatever the
   protocol. *)
let ci_targets seed =
  List.map
    (fun (name, file) ->
      let s = or_die (Subject.of_name name) in
      ( name,
        s.Subject.kind,
        file,
        fun () ->
          fst (s.Subject.learn ~seed ~algorithm:Learn.Ttt_tree ~exec:None) ))
    [
      ("tcp", "tcp.model");
      ("quic:quiche-like", "quic-quiche-like.model");
      ("dtls", "dtls.model");
    ]

let do_ci () golden_dir seed update summary_out =
  let summary = Buffer.create 256 in
  let sline fmt =
    Printf.ksprintf
      (fun s ->
        Buffer.add_string summary s;
        Buffer.add_char summary '\n')
      fmt
  in
  sline "### prognosis golden-model gate (seed %Ld)" seed;
  let drift = ref false in
  List.iter
    (fun (name, kind, file, learn) ->
      let path = Filename.concat golden_dir file in
      let model = learn () in
      let text =
        Persist.text_of_model ~kind ~input_to_string:Fun.id
          ~output_to_string:Fun.id model
      in
      if update then begin
        mkdir_p golden_dir;
        Persist.save_text ~path kind ~input_to_string:Fun.id
          ~output_to_string:Fun.id model;
        Format.printf "[golden] %-18s -> %s@." name path;
        sline "- `%s`: golden refreshed at `%s`" name path
      end
      else
        match read_file path with
        | Error msg ->
            drift := true;
            Format.printf
              "[FAIL] %-18s missing golden: %s (generate with `prognosis ci \
               --update-golden`)@."
              name msg;
            sline "- `%s`: **missing golden** (%s)" name msg
        | Ok golden_text ->
            if String.equal text golden_text then begin
              Format.printf "[ok]   %-18s matches %s@." name path;
              sline "- `%s`: matches golden" name
            end
            else begin
              drift := true;
              Format.printf "[FAIL] %-18s drifted from %s@." name path;
              sline "- `%s`: **drifted** from `%s`" name path;
              match Persist.parse_text ~path kind golden_text with
              | Error e ->
                  let msg = Persist.load_error_to_string e in
                  Format.printf "       golden unreadable: %s@." msg;
                  sline "  - golden unreadable: %s" msg
              | Ok golden_m -> (
                  let module D = Prognosis_analysis.Model_diff in
                  let canon = Mealy.canonicalize (Mealy.minimize model) in
                  match D.first_difference canon golden_m with
                  | exception Invalid_argument _ ->
                      Format.printf
                        "       input alphabet changed — refresh the golden \
                         deliberately@.";
                      sline "  - input alphabet changed"
                  | None ->
                      Format.printf
                        "       models are equivalent; the serialization \
                         itself drifted (format change?)@.";
                      sline "  - equivalent models, serialization drift"
                  | Some w ->
                      let word = String.concat " " w.D.word in
                      Format.printf "       distinguishing word: %s@." word;
                      Format.printf "         learned: %s@."
                        (String.concat " " w.D.outputs_a);
                      Format.printf "         golden : %s@."
                        (String.concat " " w.D.outputs_b);
                      sline "  - distinguishing word: `%s`" word;
                      sline "    - learned: `%s`"
                        (String.concat " " w.D.outputs_a);
                      sline "    - golden: `%s`"
                        (String.concat " " w.D.outputs_b))
            end)
    (ci_targets seed);
  (match summary_out with
  | None -> ()
  | Some path ->
      let oc = open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 path in
      Buffer.output_buffer oc summary;
      close_out oc);
  if update then Format.printf "goldens updated under %s@." golden_dir
  else if !drift then begin
    Format.printf "golden gate: DRIFT@.";
    exit 1
  end
  else Format.printf "golden gate: ok@."

let ci_cmd =
  let doc =
    "The golden-model regression gate: learn the TCP, QUIC and DTLS study \
     models, canonicalize them ($(b,prognosis.model/1)) and byte-compare \
     against the checked-in goldens. Exits non-zero on drift, printing the \
     shortest distinguishing input word with both models' outputs."
  in
  let golden_dir =
    Arg.(
      value
      & opt string "examples/golden"
      & info [ "golden" ] ~docv:"DIR" ~doc:"Directory holding golden models.")
  in
  let update =
    Arg.(
      value & flag
      & info [ "update-golden" ]
          ~doc:"Regenerate the goldens from the current code instead of gating.")
  in
  let summary_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "summary" ] ~docv:"FILE"
          ~doc:
            "Append a Markdown summary of the gate to $(docv) (pass \
             \\$GITHUB_STEP_SUMMARY in CI).")
  in
  Cmd.v
    (Cmd.info "ci" ~doc)
    Term.(const do_ci $ verbose $ golden_dir $ seed $ update $ summary_out)

(* --- trace: analyze a recorded span trace --- *)

let read_jsonl path =
  let module J = Prognosis_obs.Jsonx in
  match read_file path with
  | Error msg -> Error msg
  | Ok text ->
      let lines =
        String.split_on_char '\n' text |> List.filter (fun l -> l <> "")
      in
      let bad = ref 0 in
      let records =
        List.filter_map
          (fun l ->
            match J.of_string_opt l with
            | Some j -> Some j
            | None ->
                incr bad;
                None)
          lines
      in
      Ok (records, !bad)

let do_trace () file top slowest depth =
  let module J = Prognosis_obs.Jsonx in
  let module T = Prognosis_obs.Span_tree in
  let records, bad = or_die (read_jsonl file) in
  (match records with
  | first :: _
    when J.member "type" first = Some (J.String "meta")
         && J.member "schema" first
            = Some (J.String Prognosis_obs.Trace.schema) ->
      let flight =
        match J.member "flight" first with Some (J.Bool true) -> true | _ -> false
      in
      Format.printf "trace: %s (%s%d records)@." Prognosis_obs.Trace.schema
        (if flight then "flight dump, " else "")
        (List.length records)
  | _ ->
      Format.printf
        "warning: no %s meta header — treating input as a bare record stream@."
        Prognosis_obs.Trace.schema);
  if bad > 0 then Format.printf "warning: %d unparseable line(s) skipped@." bad;
  let roots = T.of_records records in
  if roots = [] then or_die (Error "no span or event records in this trace");
  Format.printf "@.== span tree ==@.%s" (T.render_tree ~max_depth:depth roots);
  let widest_root =
    List.fold_left
      (fun best r -> if r.T.dur_ns > best.T.dur_ns then r else best)
      (List.hd roots) (List.tl roots)
  in
  Format.printf "@.== critical path ==@.";
  List.iter
    (fun n -> Format.printf "  %s  %s@." n.T.name (T.pp_ns n.T.dur_ns))
    (T.critical_path widest_root);
  Format.printf "@.== slowest %s spans ==@." slowest;
  (match T.top_slowest ~name:slowest ~k:top roots with
  | [] -> Format.printf "  (none)@."
  | hits ->
      List.iteri
        (fun i n ->
          let len =
            match List.assoc_opt "len" n.T.attrs with
            | Some (J.Int l) -> Printf.sprintf "  len=%d" l
            | _ -> ""
          in
          Format.printf "  %d. %s%s  (id %d)@." (i + 1) (T.pp_ns n.T.dur_ns)
            len n.T.id)
        hits);
  Format.printf "@.== phase breakdown ==@.";
  match T.phase_breakdown roots with
  | [] -> Format.printf "  (no phase annotations)@."
  | phases ->
      let total = List.fold_left (fun acc (_, ns) -> acc + ns) 0 phases in
      List.iter
        (fun (p, ns) ->
          Format.printf "  %-12s %10s  %3.0f%%@." p (T.pp_ns ns)
            (100.0 *. float_of_int ns /. float_of_int (max 1 total)))
        phases

let trace_cmd =
  let doc =
    "Analyze a recorded JSONL span trace (from `learn --trace` or a flight \
     dump): aggregated span tree, critical path, top-k slowest spans and \
     per-phase time breakdown."
  in
  let file =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"TRACE" ~doc:"Trace file (JSONL).")
  in
  let top =
    Arg.(
      value & opt int 5
      & info [ "top" ] ~docv:"K" ~doc:"How many slowest spans to list.")
  in
  let slowest =
    Arg.(
      value & opt string "oracle.mq"
      & info [ "slowest" ] ~docv:"NAME"
          ~doc:
            "Span name ranked in the slowest-spans section (default: \
             membership queries).")
  in
  let depth =
    Arg.(
      value & opt int 4
      & info [ "depth" ] ~docv:"D" ~doc:"Maximum span-tree depth printed.")
  in
  Cmd.v
    (Cmd.info "trace" ~doc)
    Term.(const do_trace $ verbose $ file $ top $ slowest $ depth)

(* --- report diff: compare two machine-readable reports --- *)

let do_report_diff () file_a file_b threshold_pct show_all counters_only =
  let module J = Prognosis_obs.Jsonx in
  let module D = Prognosis_obs.Report_diff in
  let load path =
    match read_file path with
    | Error msg -> or_die (Error msg)
    | Ok text -> (
        match J.of_string_opt text with
        | Some j -> j
        | None -> or_die (Error (path ^ ": not valid JSON")))
  in
  let a = load file_a and b = load file_b in
  let deltas = D.diff a b in
  let fmt_v = function
    | None -> "-"
    | Some v ->
        if Float.is_integer v && Float.abs v < 1e15 then
          Printf.sprintf "%.0f" v
        else Printf.sprintf "%.4g" v
  in
  if counters_only then begin
    (* zero-threshold, bidirectional gate on the deterministic effort
       counters: any change at all fails, improvements included *)
    let watched = List.filter (fun d -> D.counter_watch d.D.path) deltas in
    match D.drift deltas with
    | [] ->
        Format.printf "counter gate: ok (%d deterministic counters identical)@."
          (List.length watched)
    | drifted ->
        Format.printf "counter gate: %d deterministic counter(s) drifted@."
          (List.length drifted);
        List.iter
          (fun d ->
            Format.printf "  DRIFT %s: %s -> %s@." d.D.path (fmt_v d.D.a)
              (fmt_v d.D.b))
          drifted;
        exit 1
  end
  else begin
    let shown =
      if show_all then deltas else List.filter D.changed deltas
    in
    if shown = [] then Format.printf "no differences@."
    else
      List.iter
        (fun d ->
          let pct =
            match (d.D.a, d.D.b) with
            | Some a, Some b when a <> 0.0 && a <> b ->
                Printf.sprintf "  (%+.1f%%)" (100.0 *. (b -. a) /. a)
            | _ -> ""
          in
          Format.printf "%s: %s -> %s%s@." d.D.path (fmt_v d.D.a) (fmt_v d.D.b)
            pct)
        shown;
    let threshold = threshold_pct /. 100.0 in
    match D.regressions ~threshold deltas with
    | [] ->
        Format.printf "regression gate: ok (threshold %.0f%%)@." threshold_pct
    | regs ->
        Format.printf "regression gate: %d metric(s) regressed beyond %.0f%%@."
          (List.length regs) threshold_pct;
        List.iter
          (fun d ->
            Format.printf "  REGRESSED %s: %s -> %s@." d.D.path (fmt_v d.D.a)
              (fmt_v d.D.b))
          regs;
        exit 1
  end

let report_diff_cmd =
  let doc =
    "Diff two machine-readable reports ($(b,prognosis.report/1) or \
     $(b,prognosis.bench/*) snapshots) as flat metric maps and gate on \
     regressions: exits 1 when a watched metric (benchmark timings, \
     membership/reset/step effort) grew beyond the threshold."
  in
  let file_a =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"BASELINE" ~doc:"Baseline report (JSON).")
  in
  let file_b =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"CANDIDATE" ~doc:"Candidate report (JSON).")
  in
  let threshold =
    Arg.(
      value & opt float 10.0
      & info [ "threshold" ] ~docv:"PCT"
          ~doc:"Allowed growth of a watched metric, in percent.")
  in
  let show_all =
    Arg.(
      value & flag
      & info [ "all" ] ~doc:"Print unchanged metrics too, not just deltas.")
  in
  let counters_only =
    Arg.(
      value & flag
      & info [ "counters-only" ]
          ~doc:
            "Gate only the deterministic learning-effort counters \
             (membership queries/symbols, test words, \
             queries-per-identification) at zero threshold, in both \
             directions: exits 1 on any drift. Timings are ignored.")
  in
  Cmd.v
    (Cmd.info "diff" ~doc)
    Term.(
      const do_report_diff $ verbose $ file_a $ file_b $ threshold $ show_all
      $ counters_only)

let report_cmd =
  let doc = "Operations on machine-readable run reports." in
  Cmd.group (Cmd.info "report" ~doc) [ report_diff_cmd ]

(* --- fingerprint: model library + open-world identification --- *)

module Library = Prognosis_fingerprint.Library
module Splitter = Prognosis_fingerprint.Splitter
module Identify = Prognosis_fingerprint.Identify

module Service = Prognosis_service.Service

let library_dir_pos =
  let doc = "Library directory (holds *.model files plus library.json)." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"DIR" ~doc)

let do_library_build () dir subjects seed algorithm workers batch replicas =
  let exec = exec_of_flags ~workers ~batch ~replicas in
  mkdir_p dir;
  List.iter
    (fun name ->
      let s = or_die (Subject.of_name name) in
      Format.printf "learning %s...@." s.Subject.name;
      let model, report = s.Subject.learn ~seed ~algorithm ~exec in
      let entry = Library.entry_of_model ~name:s.Subject.name ~kind:s.Subject.kind model in
      Prognosis_obs.Atomic_file.write
        ~path:(Filename.concat dir entry.Library.file)
        entry.Library.text;
      Format.printf "  %d states, %d membership queries -> %s@."
        report.Report.states report.Report.membership_queries
        entry.Library.file)
    subjects;
  let lib, notes = or_die (Library.build ~dir) in
  List.iter (fun n -> Format.printf "note: %s@." n) notes;
  Format.printf "library %s: %d entr%s@." dir
    (List.length lib.Library.entries)
    (if List.length lib.Library.entries = 1 then "y" else "ies")

let do_library_list () dir =
  let lib = or_die (Library.load ~dir) in
  List.iter
    (fun (kind, entries) ->
      Format.printf "%s:@." (Persist.kind_to_string kind);
      List.iter
        (fun (e : Library.entry) ->
          Format.printf "  %-24s %3d states  %3d transitions  %s@."
            e.Library.name (Mealy.size e.Library.model)
            (Mealy.transitions e.Library.model) e.Library.file)
        entries)
    (Library.group_by_kind lib);
  Format.printf "%d entr%s@."
    (List.length lib.Library.entries)
    (if List.length lib.Library.entries = 1 then "y" else "ies")

let do_library_inspect () dir =
  let lib = or_die (Library.load ~dir) in
  let forest = or_die (Splitter.of_library lib) in
  List.iter
    (fun (kind, tree) ->
      let s = Splitter.stats tree in
      Format.printf
        "%s: %d entr%s, tree depth %d, %d separating word(s), longest %d \
         symbol(s)@."
        (Persist.kind_to_string kind) s.Splitter.leaves
        (if s.Splitter.leaves = 1 then "y" else "ies")
        s.Splitter.depth s.Splitter.internal s.Splitter.max_word_len;
      Format.printf "@[<v 2>  %a@]@." Splitter.pp tree)
    forest

let library_build_cmd =
  let doc =
    "Scan DIR for prognosis.model/1 files (optionally learning some subjects \
     first), drop behavioural duplicates, and write the \
     prognosis.library/1 manifest."
  in
  let learn_subjects =
    let doc =
      "Learn $(docv) and save its canonical model into the library before \
       scanning. Repeatable. Subjects: tcp, tcp:persistent, \
       tcp:no-challenge, dtls, dtls:no-cookie, dtls:lax-ccs, quic:PROFILE."
    in
    Arg.(value & opt_all string [] & info [ "learn" ] ~docv:"SUBJECT" ~doc)
  in
  Cmd.v
    (Cmd.info "build" ~doc)
    Term.(
      const do_library_build $ verbose $ library_dir_pos $ learn_subjects
      $ seed $ algorithm $ workers_arg $ batch_arg $ replicas_arg)

let library_list_cmd =
  let doc = "List the entries of a model library, grouped by kind." in
  Cmd.v (Cmd.info "list" ~doc) Term.(const do_library_list $ verbose $ library_dir_pos)

let library_inspect_cmd =
  let doc =
    "Show the adaptive classification tree compiled from a library: each \
     level asks one separating word and branches on the endpoint's output \
     word."
  in
  Cmd.v
    (Cmd.info "inspect" ~doc)
    Term.(const do_library_inspect $ verbose $ library_dir_pos)

let library_cmd =
  let doc = "Manage fingerprint model libraries (prognosis.library/1)." in
  Cmd.group
    (Cmd.info "library" ~doc)
    [ library_build_cmd; library_list_cmd; library_inspect_cmd ]

let fresh_entry_name lib base =
  if Library.find lib base = None then base
  else
    let rec go i =
      let candidate = Printf.sprintf "%s-%d" base i in
      if Library.find lib candidate = None then candidate else go (i + 1)
    in
    go 2

let do_identify () dir subject_name name_override seed algorithm workers batch
    replicas no_extend metrics_out trace_out =
  ignore batch;
  (* Always drive the endpoint through the query-execution engine:
     identification gets the cache, batched confirmation suites and
     (with --replicas) voting for free. *)
  let exec = exec_of_flags ~workers ~batch:true ~replicas in
  let s = or_die (Subject.of_name subject_name) in
  let lib = or_die (Library.load ~dir) in
  let forest = or_die (Splitter.of_library lib) in
  let tree =
    Option.value ~default:(Splitter.Leaf None) (List.assoc_opt s.Subject.kind forest)
  in
  Prognosis_obs.Metrics.reset Prognosis_obs.Metrics.default;
  let tracing = trace_out <> None in
  Option.iter
    (fun path ->
      try Prognosis_obs.Trace.set_sink (Prognosis_obs.Trace.Sink.jsonl_file path)
      with Sys_error msg -> or_die (Error ("cannot open trace file: " ^ msg)))
    trace_out;
  let engine =
    Prognosis_exec.Engine.create ?config:exec
      ~factory:(s.Subject.factory ~seed ~workers) ()
  in
  let mq = Prognosis_exec.Engine.membership engine in
  let result =
    Fun.protect
      ~finally:(fun () -> if tracing then Prognosis_obs.Trace.unset_sink ())
      (fun () ->
        try Identify.run ~mq tree
        with Prognosis_sul.Nondet.Nondeterministic_sul msg ->
          or_die
            (Error
               ("nondeterministic endpoint: " ^ msg
              ^ ". Investigate with `prognosis nondet`.")))
  in
  Format.printf "@[<v>%a@]@." Identify.pp result;
  (match result.Identify.outcome with
  | Identify.Known entry ->
      Format.printf "endpoint identified as %s@." entry.Library.name
  | Identify.Novel _ when no_extend ->
      Format.printf
        "novel endpoint — library unchanged (drop --no-extend to learn and \
         add it)@."
  | Identify.Novel _ -> (
      Format.printf "novel endpoint: learning a full model...@.";
      let model, report = s.Subject.learn ~seed ~algorithm ~exec in
      Format.printf "learned %d states in %d membership queries@."
        report.Report.states report.Report.membership_queries;
      let name =
        match name_override with
        | Some n -> n
        | None -> fresh_entry_name lib s.Subject.name
      in
      match or_die (Library.add lib ~name ~kind:s.Subject.kind model) with
      | Library.Added lib' ->
          Format.printf "library extended: %s (%d entries)@." name
            (List.length lib'.Library.entries)
      | Library.Duplicate e ->
          Format.printf
            "learned model is behaviourally identical to existing entry %s — \
             library unchanged@."
            e.Library.name));
  match metrics_out with
  | None -> ()
  | Some path ->
      let hits, misses = Prognosis_exec.Engine.cache_stats engine in
      let states, transitions =
        match result.Identify.outcome with
        | Identify.Known e ->
            (Mealy.size e.Library.model, Mealy.transitions e.Library.model)
        | Identify.Novel _ -> (0, 0)
      in
      let alphabet =
        match List.filter (fun (e : Library.entry) -> e.Library.kind = s.Subject.kind) lib.Library.entries with
        | e :: _ -> Mealy.alphabet_size e.Library.model
        | [] -> 0
      in
      let report =
        Report.
          {
            subject = subject_name;
            algorithm = "identify";
            states;
            transitions;
            membership_queries = mq.Prognosis_learner.Oracle.stats.membership_queries;
            membership_symbols = mq.Prognosis_learner.Oracle.stats.membership_symbols;
            cache_hits = hits;
            cache_misses = misses;
            equivalence_rounds = 0;
            test_words = 0;
            alphabet;
            exec = Some (Prognosis_exec.Engine.stats_json engine);
            identification = Some (Identify.to_json result);
            service = None;
          }
      in
      (try
         Prognosis_obs.Atomic_file.write ~path
           (Report.to_json_string ~metrics:Prognosis_obs.Metrics.default report
           ^ "\n")
       with Sys_error msg -> or_die (Error ("cannot write metrics file: " ^ msg)));
      Format.printf "metrics written to %s@." path

let identify_cmd =
  let doc =
    "Identify a live endpoint against a model library: walk the adaptive \
     classification tree (a few separating words), confirm the candidate \
     with its state cover crossed with its characterizing set, and fall \
     back to full learning plus library extension when the endpoint is \
     novel — open-world fingerprinting at a fraction of full-learning \
     query cost."
  in
  let library_arg =
    let doc = "Model library directory (see `prognosis library build`)." in
    Arg.(
      required
      & opt (some string) None
      & info [ "library" ] ~docv:"DIR" ~doc)
  in
  let subject_arg =
    let doc =
      "The endpoint to identify: tcp, tcp:persistent, tcp:no-challenge, \
       dtls, dtls:no-cookie, dtls:lax-ccs or quic:PROFILE."
    in
    Arg.(
      required & opt (some string) None & info [ "subject" ] ~docv:"SUBJECT" ~doc)
  in
  let name_arg =
    let doc =
      "Name for the new library entry when the endpoint turns out novel \
       (default: the subject name, suffixed if taken)."
    in
    Arg.(value & opt (some string) None & info [ "name" ] ~docv:"NAME" ~doc)
  in
  let no_extend =
    let doc = "On a novel endpoint, skip full learning and library extension." in
    Arg.(value & flag & info [ "no-extend" ] ~doc)
  in
  Cmd.v
    (Cmd.info "identify" ~doc)
    Term.(
      const do_identify $ verbose $ library_arg $ subject_arg $ name_arg $ seed
      $ algorithm $ workers_arg $ batch_arg $ replicas_arg $ no_extend
      $ metrics_out $ trace_out)

(* --- serve: domain-parallel fleet sessions --- *)

let do_serve () jobs_file domains shards workers replicas library_dir
    metrics_out =
  check_pool ~shards ~workers ~replicas ();
  Prognosis_obs.Metrics.reset Prognosis_obs.Metrics.default;
  let jobs = or_die (Result.bind (read_file jobs_file) Service.jobs_of_string) in
  let library =
    Option.map (fun dir -> or_die (Library.load ~dir)) library_dir
  in
  let config =
    { Service.default_config with Prognosis_exec.Engine.workers; replicas }
  in
  let summary =
    match Service.run ~domains ~shards ~config ?library ~jobs () with
    | Ok s -> s
    | Error e -> or_die (Error e)
    | exception Prognosis_sul.Nondet.Nondeterministic_sul msg ->
        or_die
          (Error
             ("nondeterministic endpoint: " ^ msg
            ^ ". Investigate with `prognosis nondet`."))
  in
  Format.printf "@[<v>%a@]@." Service.pp summary;
  match metrics_out with
  | None -> ()
  | Some path ->
      let sum f = List.fold_left (fun acc s -> acc + f s) 0 summary.Service.sessions in
      let report =
        Report.
          {
            subject = "fleet";
            algorithm = "serve";
            states = 0;
            transitions = 0;
            membership_queries = sum (fun s -> s.Service.membership_queries);
            membership_symbols = sum (fun s -> s.Service.membership_symbols);
            cache_hits = Service.shared_hits summary;
            cache_misses =
              List.fold_left
                (fun acc (c : Service.shared_cache) -> acc + c.Service.misses)
                0 summary.Service.shared;
            equivalence_rounds = 0;
            test_words = sum (fun s -> s.Service.test_words);
            alphabet = 0;
            exec = None;
            identification = None;
            service = Some (Service.to_json summary);
          }
      in
      (try
         Prognosis_obs.Atomic_file.write ~path
           (Report.to_json_string ~metrics:Prognosis_obs.Metrics.default report
           ^ "\n")
       with Sys_error msg -> or_die (Error ("cannot write metrics file: " ^ msg)));
      Format.printf "metrics written to %s@." path

let serve_cmd =
  let doc =
    "Run a fleet of learning and identification sessions on an OCaml domain \
     pool: every session owns its own query-execution engine, sessions \
     probing the same endpoint configuration share one sharded membership \
     cache, and identify sessions walk one resident classification tree. \
     Results merge deterministically in job order."
  in
  let jobs_arg =
    let doc =
      "Job list (prognosis.jobs/1): {\"schema\": \"prognosis.jobs/1\", \
       \"jobs\": [{\"op\": \"learn\"|\"identify\", \"subject\": SUBJECT, \
       \"seed\": N, \"algorithm\": \"ttt\"|\"lstar\"}, ...]}."
    in
    Arg.(required & opt (some string) None & info [ "jobs" ] ~docv:"FILE" ~doc)
  in
  let domains_arg =
    let doc =
      "Number of OCaml domains running sessions (clamped to the job count; 1 \
       keeps the fleet sequential and its per-session counters \
       deterministic)."
    in
    Arg.(value & opt int 1 & info [ "domains" ] ~docv:"N" ~doc)
  in
  let shards_arg =
    let doc = "Shard count of each shared membership cache." in
    Arg.(value & opt int 8 & info [ "shards" ] ~docv:"K" ~doc)
  in
  let library_arg =
    let doc =
      "Model library directory, required when any job identifies (see \
       `prognosis library build`)."
    in
    Arg.(value & opt (some string) None & info [ "library" ] ~docv:"DIR" ~doc)
  in
  Cmd.v
    (Cmd.info "serve" ~doc)
    Term.(
      const do_serve $ verbose $ jobs_arg $ domains_arg $ shards_arg
      $ workers_arg $ replicas_arg $ library_arg $ metrics_out)

let main =
  let doc = "closed-box learning and analysis of protocol implementations" in
  Cmd.group
    (Cmd.info "prognosis" ~version:"1.0.0" ~doc)
    [
      learn_cmd; resume_cmd; ci_cmd; compare_cmd; nondet_cmd; synthesize_cmd;
      check_cmd; difftest_cmd; identify_cmd; library_cmd; serve_cmd;
      render_cmd; replay_cmd; trace_cmd; report_cmd;
    ]

let () = exit (Cmd.eval main)
