(* The three workloads. Each is one closed-loop client: [setup] turns
   the workload seed into the program's inputs (subject seeds and job
   lists) and warms up; [run] is one untraced op and [traced] the same
   op with ledger spans. Both raise [Failure] when an output is wrong;
   the harness counts that op as failed and carries on. *)

module Mealy = Prognosis_automata.Mealy
module Rng = Prognosis_sul.Rng
module Sul = Prognosis_sul.Sul
module Oracle = Prognosis_learner.Oracle
module Cache = Prognosis_learner.Cache
module Ttt = Prognosis_learner.Ttt
module Learn = Prognosis_learner.Learn
module Eq_oracle = Prognosis_learner.Eq_oracle
module Engine = Prognosis_exec.Engine
module Persist = Prognosis.Persist
module Library = Prognosis_fingerprint.Library
module Identify = Prognosis_fingerprint.Identify
module Subject = Prognosis_service.Subject
module Service = Prognosis_service.Service
open Traced

type counters = { mq : int; sym : int; tw : int }

let zero = { mq = 0; sym = 0; tw = 0 }
let ( ++ ) a b = { mq = a.mq + b.mq; sym = a.sym + b.sym; tw = a.tw + b.tw }

let of_stats (s : Oracle.stats) =
  {
    mq = s.Oracle.membership_queries;
    sym = s.Oracle.membership_symbols;
    tw = s.Oracle.test_words;
  }

type learned = { label : string; ns : int; counters : counters }

type op = {
  learned : learned list;  (** one per model learned in the op *)
  total : counters;
  sessions : int;
  layers : (string * float) list;
      (** per-layer figures the op reports about itself (fleet only) *)
}

type instance = { run : unit -> op; traced : unit -> op }

let fail fmt = Printf.ksprintf failwith fmt

let time f =
  let t0 = Ledger.now () in
  let v = f () in
  (v, Ledger.now () - t0)

let op_of ~sessions learned =
  {
    learned;
    total = List.fold_left (fun acc l -> acc ++ l.counters) zero learned;
    sessions;
    layers = [];
  }

let c_rounds = Ledger.counter "learner.rounds"
let c_cache_hits = Ledger.counter "cache.hits"
let c_cache_misses = Ledger.counter "cache.misses"
let c_exec_runs = Ledger.counter "exec.runs"
let c_exec_resets = Ledger.counter "exec.resets"
let c_exec_steps = Ledger.counter "exec.steps"
let c_exec_baseline = Ledger.counter "exec.baseline"
let c_exec_hits = Ledger.counter "exec.cache_hits"
let c_exec_misses = Ledger.counter "exec.cache_misses"

(* --- goldens and the studies' equivalence oracles --- *)

type golden = {
  proto : proto;
  subject : string;
  kind : Persist.kind;
  text : string;
  model : (string, string) Mealy.t;
}

let golden_dir = Filename.concat "examples" "golden"

let load_goldens () =
  List.map
    (fun (proto, subject, file, kind) ->
      let path = Filename.concat golden_dir file in
      let text = In_channel.with_open_bin path In_channel.input_all in
      match Persist.parse_text ~path kind text with
      | Ok model -> { proto; subject; kind; text; model }
      | Error e -> fail "%s: %s" path (Persist.load_error_to_string e))
    [
      (Tcp, "tcp", "tcp.model", Persist.Tcp_model);
      (Quic, "quic:quiche-like", "quic-quiche-like.model", Persist.Quic_model);
      (Dtls, "dtls", "dtls.model", Persist.Dtls_model);
    ]

let check_text g text =
  if text <> g.text then fail "%s: learned model differs from golden" g.subject

(* The DTLS study's scenario words (Dtls_study keeps them private). *)
let dtls_scenarios =
  Prognosis_dtls.Dtls_alphabet.
    [
      [ Client_hello; Client_hello; Client_key_exchange; Change_cipher_spec; Finished ];
      [
        Client_hello; Client_hello; Client_key_exchange; Change_cipher_spec;
        Finished; App_data; Alert_close; App_data;
      ];
      [
        Client_hello; Client_hello; Client_key_exchange; Change_cipher_spec;
        Finished; Finished; App_data;
      ];
      [ Client_hello; Client_key_exchange; Change_cipher_spec; Finished; App_data ];
    ]

(* The equivalence oracle each study builds for [seed]; [w] is the
   W-method (k=1) phase, timed or not. *)
let study_eq ~w ~scenarios proto ~seed =
  let rng = Rng.create (Int64.add seed 7L) in
  let random max_tests max_len =
    Eq_oracle.random_words ~rng ~max_tests ~min_len:1 ~max_len
  in
  Eq_oracle.combine
    (match proto with
    | Tcp -> [ w; random 500 12 ]
    | Quic -> [ w; random 400 10 ]
    | Dtls -> [ Eq_oracle.fixed_words scenarios; w; random 400 10 ])

let draw_seed rng = Int64.of_int (1 + Rng.int rng 1_000_000)

(* --- learn-wire: Subject.learn ~exec:None, the default learn path --- *)

let subject name =
  match Subject.of_name name with Ok s -> s | Error e -> fail "%s" e

(* The traced op composes Learn.run's public parts around a SUL rebuilt
   by [Traced]: Oracle.of_sul, Cache.wrap (Cache.create ()), Ttt.learn. *)
let learn_direct ~inputs ~sul ~eq ~to_text =
  let raw = sul_oracle sul in
  let cache = Cache.create () in
  let mq = timed_mq l_cache (Cache.wrap cache raw) in
  let model, rounds =
    span l_learner (fun () -> Ttt.learn ~inputs ~mq ~eq:(timed_eq eq) ())
  in
  Ledger.add c_rounds rounds;
  Ledger.add c_cache_hits (Cache.hits cache);
  Ledger.add c_cache_misses (Cache.misses cache);
  (to_text model, of_stats raw.Oracle.stats)

let traced_wire g ~seed =
  let text ~to_s ~out_s =
    Persist.text_of_model ~kind:g.kind ~input_to_string:to_s ~output_to_string:out_s
  in
  match g.proto with
  | Tcp ->
      let module A = Prognosis_tcp.Tcp_alphabet in
      learn_direct ~inputs:A.all ~sul:(tcp_sul ~seed)
        ~eq:(study_eq ~w:w_method_timed ~scenarios:[] Tcp ~seed)
        ~to_text:(text ~to_s:A.to_string ~out_s:A.output_to_string)
  | Quic ->
      let module A = Prognosis_quic.Quic_alphabet in
      let profile =
        match Subject.profile_of_name "quiche-like" with
        | Ok p -> p
        | Error e -> fail "%s" e
      in
      learn_direct ~inputs:A.all ~sul:(quic_sul ~profile ~seed)
        ~eq:(study_eq ~w:w_method_timed ~scenarios:[] Quic ~seed)
        ~to_text:(text ~to_s:A.to_string ~out_s:A.output_to_string)
  | Dtls ->
      let module A = Prognosis_dtls.Dtls_alphabet in
      learn_direct ~inputs:A.all ~sul:(dtls_sul ~seed)
        ~eq:(study_eq ~w:w_method_timed ~scenarios:dtls_scenarios Dtls ~seed)
        ~to_text:(text ~to_s:A.to_string ~out_s:A.output_to_string)

let learn_wire ~seed =
  let rng = Rng.create (Int64.of_int seed) in
  let inputs =
    List.map (fun g -> (g, subject g.subject, draw_seed rng)) (load_goldens ())
  in
  let run () =
    op_of ~sessions:(List.length inputs)
      (List.map
         (fun (g, s, seed) ->
           let (model, report), ns =
             time (fun () ->
                 s.Subject.learn ~seed ~algorithm:Learn.Ttt_tree ~exec:None)
           in
           check_text g
             (Persist.text_of_model ~kind:g.kind ~input_to_string:Fun.id
                ~output_to_string:Fun.id model);
           {
             label = proto_name g.proto;
             ns;
             counters =
               {
                 mq = report.Prognosis.Report.membership_queries;
                 sym = report.Prognosis.Report.membership_symbols;
                 tw = report.Prognosis.Report.test_words;
               };
           })
         inputs)
  in
  let traced () =
    op_of ~sessions:(List.length inputs)
      (List.map
         (fun (g, _, seed) ->
           let (text, counters), ns = time (fun () -> traced_wire g ~seed) in
           check_text g text;
           { label = proto_name g.proto; ns; counters })
         inputs)
  in
  { run; traced }

(* --- learn-replay: each golden as its own SUL, through Exec.Engine --- *)

let replay_eq ~w g ~seed =
  let scenarios =
    match g.proto with
    | Dtls ->
        List.map (List.map Prognosis_dtls.Dtls_alphabet.to_string) dtls_scenarios
    | Tcp | Quic -> []
  in
  study_eq ~w ~scenarios g.proto ~seed

let learn_replay ~seed =
  let rng = Rng.create (Int64.of_int seed) in
  let inputs = List.map (fun g -> (g, draw_seed rng)) (load_goldens ()) in
  let finish g model counters ns =
    check_text g
      (Persist.text_of_model ~kind:g.kind ~input_to_string:Fun.id
         ~output_to_string:Fun.id model);
    { label = proto_name g.proto; ns; counters }
  in
  let run () =
    op_of ~sessions:(List.length inputs)
      (List.map
         (fun (g, seed) ->
           let r, ns =
             time (fun () ->
                 let engine =
                   Engine.create ~factory:(fun _ -> Sul.of_mealy g.model) ()
                 in
                 Learn.run_mq
                   ~cache_stats:(fun () -> Engine.cache_stats engine)
                   ~inputs:(Mealy.inputs g.model) ~mq:(Engine.membership engine)
                   ~eq:(replay_eq ~w:(Eq_oracle.w_method ~extra_states:1 ()) g ~seed)
                   ())
           in
           finish g r.Learn.model (of_stats r.Learn.stats) ns)
         inputs)
  in
  let traced () =
    op_of ~sessions:(List.length inputs)
      (List.map
         (fun (g, seed) ->
           let (model, engine, mq), ns =
             time (fun () ->
                 let engine =
                   Engine.create
                     ~factory:(fun _ -> timed_sul (Sul.of_mealy g.model))
                     ()
                 in
                 let mq = timed_mq l_exec (Engine.membership engine) in
                 let model, rounds =
                   span l_learner (fun () ->
                       Ttt.learn ~inputs:(Mealy.inputs g.model) ~mq
                         ~eq:(timed_eq (replay_eq ~w:w_method_timed g ~seed))
                         ())
                 in
                 Ledger.add c_rounds rounds;
                 (model, engine, mq))
           in
           let s = Engine.stats engine and hits, misses = Engine.cache_stats engine in
           Ledger.add c_exec_runs s.Engine.runs;
           Ledger.add c_exec_resets s.Engine.resets;
           Ledger.add c_exec_steps s.Engine.steps;
           Ledger.add c_exec_baseline (s.Engine.baseline_resets + s.Engine.baseline_steps);
           Ledger.add c_exec_hits hits;
           Ledger.add c_exec_misses misses;
           finish g model (of_stats mq.Oracle.stats) ns)
         inputs)
  in
  { run; traced }

(* --- fleet: Service.run ~domains:2 over identify and learn sessions --- *)

(* Five reference subjects make the library; the learn sessions probe
   endpoints absent from it, one per protocol. *)
let library_subjects =
  [ "tcp"; "dtls"; "quic:quiche-like"; "quic:google-like"; "quic:strict-retry" ]

let learn_subjects =
  [ (Tcp, "tcp:no-challenge"); (Quic, "quic:token-issuing"); (Dtls, "dtls:no-cookie") ]

(* Every subject runs at five seeds, which makes an op (~190 ms) long
   enough that one stalled core no longer dominates the op-time tail. *)
let seeds_per_subject = 5
let fleet_domains = 2

let with_timed_factory (s : Subject.t) =
  {
    s with
    Subject.factory =
      (fun ~seed ~workers ->
        let make = s.Subject.factory ~seed ~workers in
        fun i -> timed_sul (make i));
  }

let session_counters (s : Service.session) =
  {
    mq = s.Service.membership_queries;
    sym = s.Service.membership_symbols;
    tw = s.Service.test_words;
  }

let service_run ?library jobs ~domains =
  match Service.run ~domains ?library ~jobs () with
  | Ok t -> t
  | Error e -> fail "Service.run: %s" e

let fleet ~seed =
  let rng = Rng.create (Int64.of_int seed) in
  let entries =
    List.map
      (fun name ->
        let s = subject name in
        let model, _ =
          s.Subject.learn ~seed:(draw_seed rng) ~algorithm:Learn.Ttt_tree ~exec:None
        in
        Library.entry_of_model ~name ~kind:s.Subject.kind model)
      library_subjects
  in
  let library = { Library.dir = "(in-memory)"; entries } in
  let learn_jobs =
    List.concat_map
      (fun (proto, name) ->
        List.init seeds_per_subject (fun _ ->
            (proto, Service.job ~seed:(draw_seed rng) Service.Learn (subject name))))
      learn_subjects
  in
  let identify_jobs =
    List.concat_map
      (fun name ->
        List.init seeds_per_subject (fun _ ->
            Service.job ~seed:(draw_seed rng) Service.Identify (subject name)))
      library_subjects
  in
  (* learn sessions first: they are the long ones, so the pool does not
     end on a lone straggler *)
  let jobs = List.map snd learn_jobs @ identify_jobs in
  let solo =
    List.map
      (fun (proto, job) ->
        match (service_run [ job ] ~domains:1).Service.sessions with
        | [ { Service.outcome = Service.Learned { canonical; _ }; _ } ] ->
            (proto, canonical)
        | _ -> fail "solo learn of %s gave no model" job.Service.subject.Subject.name)
      learn_jobs
  in
  let check (t : Service.t) =
    let learned =
      List.filter_map
        (fun (s : Service.session) ->
          match s.Service.outcome with
          | Service.Learned { canonical; _ } ->
              let proto, solo_canonical = List.nth solo s.Service.index in
              if canonical <> solo_canonical then
                fail "fleet learn of %s differs from its solo run" s.Service.endpoint;
              Some
                {
                  label = proto_name proto;
                  ns = int_of_float (s.Service.elapsed_s *. 1e9);
                  counters = session_counters s;
                }
          | Service.Identified _ -> None)
        t.Service.sessions
    in
    let identified =
      List.filter_map
        (fun (s : Service.session) ->
          match s.Service.outcome with
          | Service.Identified { Identify.outcome = Identify.Known e; words_asked; _ }
            when e.Library.name = s.Service.endpoint ->
              Some (s, words_asked)
          | Service.Identified _ ->
              fail "fleet identify of %s did not come back Known as itself"
                s.Service.endpoint
          | Service.Learned _ -> None)
        t.Service.sessions
    in
    let mean xs = List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs) in
    let busy_s =
      List.fold_left (fun acc (s : Service.session) -> acc +. s.Service.elapsed_s) 0.0
        t.Service.sessions
    in
    let lookups =
      List.fold_left
        (fun acc (c : Service.shared_cache) -> acc + c.Service.hits + c.Service.misses)
        0 t.Service.shared
    in
    let op = op_of ~sessions:(List.length t.Service.sessions) learned in
    {
      op with
      total =
        List.fold_left (fun acc (s, _) -> acc ++ session_counters s) op.total identified;
      layers =
        [
          ( "identify.session_ms",
            mean (List.map (fun ((s : Service.session), _) -> s.Service.elapsed_s *. 1e3) identified) );
          ( "identify.words_asked",
            float_of_int (List.fold_left (fun acc (_, w) -> acc + w) 0 identified) );
          ( "service.learn_session_ms",
            mean (List.map (fun l -> float_of_int l.ns /. 1e6) learned) );
          ( "service.busy_ratio",
            busy_s /. (float_of_int t.Service.domains *. t.Service.elapsed_s) );
          ( "service.shared_hit_ratio",
            float_of_int (Service.shared_hits t) /. float_of_int (max 1 lookups) );
        ];
    }
  in
  let run () = check (service_run ~library jobs ~domains:fleet_domains) in
  let traced_jobs =
    List.map
      (fun (j : Service.job) ->
        { j with Service.subject = with_timed_factory j.Service.subject })
      jobs
  in
  let traced () =
    check
      (span l_service (fun () ->
           service_run ~library traced_jobs ~domains:fleet_domains))
  in
  { run; traced }

(* name, domains the op runs on, set-up *)
let all =
  [
    ("learn-wire", 1, learn_wire);
    ("learn-replay", 1, learn_replay);
    ("fleet", fleet_domains, fleet);
  ]
