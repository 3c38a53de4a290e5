module Rng = Prognosis_sul.Rng
module Nondet = Prognosis_sul.Nondet
module Sul = Prognosis_sul.Sul
module Adapter = Prognosis_sul.Adapter
module Oracle_table = Prognosis_sul.Oracle_table
module Eq_oracle = Prognosis_learner.Eq_oracle
module Learn = Prognosis_learner.Learn
module Checkpoint = Prognosis_learner.Checkpoint
module Ext_mealy = Prognosis_synthesis.Ext_mealy
module Synthesizer = Prognosis_synthesis.Synthesizer
module Metrics = Prognosis_obs.Metrics

type ('i, 'o) t = {
  name : string;
  kind : Persist.kind;
  inputs : 'i array;
  input_to_string : 'i -> string;
  output_to_string : 'o -> string;
  sul : seed:int64 -> ('i, 'o) Sul.t;
  scenarios : 'i list list;
  random_words : int;
  max_len : int;
}

let eq_oracle d ~seed =
  let rng = Rng.create (Int64.add seed 7L) in
  Eq_oracle.combine
    [
      Eq_oracle.fixed_words d.scenarios;
      Eq_oracle.w_method ~extra_states:1 ();
      Eq_oracle.random_words ~rng ~max_tests:d.random_words ~min_len:1
        ~max_len:d.max_len;
    ]

let factory d ~seed ~workers =
  let wseeds = Array.map Rng.next64 (Rng.split_n (Rng.create seed) workers) in
  fun i -> d.sul ~seed:wseeds.(i)

(* [study] is the protocol; a subject variant ("quic:quiche-like",
   "tcp:no-challenge") adds the part after the colon as [profile]. *)
let run_labels d =
  let study = ("study", Persist.kind_to_string d.kind) in
  match String.index_opt d.name ':' with
  | None -> [ study ]
  | Some i ->
      let variant = String.sub d.name (i + 1) (String.length d.name - i - 1) in
      [ study; ("profile", variant) ]

let learn ?(seed = 1L) ?(algorithm = Learn.Ttt_tree) ?exec ?checkpoint d =
  Metrics.inc
    (Metrics.counter_l Metrics.default "study.learn_runs" (run_labels d));
  let kind = String.map (function ':' -> '-' | c -> c) d.name in
  match
    Pipeline.learn ?exec
      ?checkpoint:(Option.map (Checkpoint.start ~kind) checkpoint)
      ~subject:d.name ~seed ~algorithm ~inputs:d.inputs ~factory:(factory d)
      ~eq:(eq_oracle d ~seed) ()
  with
  | Ok learned -> learned
  | Error { Nondet.word; answers } ->
      let answer (o : _ Nondet.observation) =
        { o with answer = List.map d.output_to_string o.answer }
      in
      let word = List.map d.input_to_string word in
      raise (Nondet.Nondeterministic { word; answers = List.map answer answers })

let strings d =
  {
    d with
    inputs = Array.map d.input_to_string d.inputs;
    input_to_string = Fun.id;
    output_to_string = Fun.id;
    sul =
      (fun ~seed ->
        Sul.strings ~symbols:d.inputs ~to_string:d.input_to_string
          ~output_to_string:d.output_to_string (d.sul ~seed));
    scenarios = List.map (List.map d.input_to_string) d.scenarios;
  }

let model_dot d model =
  let pp print fmt x = Format.pp_print_string fmt (print x) in
  Prognosis_automata.Mealy.to_dot ~name:(Persist.kind_to_string d.kind)
    ~input_pp:(pp d.input_to_string) ~output_pp:(pp d.output_to_string) model

type ('ci, 'co) fields = {
  names_in : string array;
  names_out : string array;
  of_sent : 'ci list -> int array;
  of_received : 'co list -> int option array;
}

(* Replays each word through the adapter and turns its Oracle Table
   record into a synthesis trace. *)
let witness_traces fields adapter words =
  List.map
    (fun word ->
      ignore (Adapter.query adapter word);
      match Oracle_table.find adapter.Adapter.table word with
      | None -> invalid_arg "Protocol.witness_traces: query was not recorded"
      | Some entry ->
          List.map2
            (fun (sym, out) (step : _ Oracle_table.step) ->
              {
                Ext_mealy.sym_in = sym;
                fields_in = fields.of_sent step.Oracle_table.sent;
                sym_out = out;
                fields_out = fields.of_received step.Oracle_table.received;
              })
            (List.combine entry.Oracle_table.abstract_inputs
               entry.Oracle_table.abstract_outputs)
            entry.Oracle_table.steps)
    words

let synthesize ?(nregs = 1) fields adapter model words =
  let cfg =
    {
      (Synthesizer.default_config ~nregs
         ~in_arity:(Array.length fields.names_in)
         ~out_arity:(Array.length fields.names_out))
      with
      Synthesizer.consts = [ 0 ];
    }
  in
  Synthesizer.solve cfg ~skeleton:model
    ~traces:(witness_traces fields adapter words)
    ()
