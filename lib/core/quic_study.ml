module Mealy = Prognosis_automata.Mealy
module Rng = Prognosis_sul.Rng
module Adapter = Prognosis_sul.Adapter
module Oracle_table = Prognosis_sul.Oracle_table
module Nondet = Prognosis_sul.Nondet
module Sul = Prognosis_sul.Sul
module Learn = Prognosis_learner.Learn
module Eq_oracle = Prognosis_learner.Eq_oracle
module Checkpoint = Prognosis_learner.Checkpoint
module Ext_mealy = Prognosis_synthesis.Ext_mealy
module Synthesizer = Prognosis_synthesis.Synthesizer
module Term = Prognosis_synthesis.Term
module Alphabet = Prognosis_quic.Quic_alphabet
module Profile = Prognosis_quic.Quic_profile
module Packet = Prognosis_quic.Quic_packet
module Frame = Prognosis_quic.Frame
module Quic_adapter = Prognosis_quic.Quic_adapter

type model = (Alphabet.symbol, Alphabet.output) Mealy.t

type result = {
  model : model;
  report : Report.t;
  adapter : (Alphabet.symbol, Alphabet.output, Packet.t, Packet.t) Adapter.t;
  client : Prognosis_quic.Quic_client.t;
}

let eq_oracle ~seed =
  let rng = Rng.create (Int64.add seed 7L) in
  Eq_oracle.combine
    [
      Eq_oracle.w_method ~extra_states:1 ();
      Eq_oracle.random_words ~rng ~max_tests:400 ~min_len:1 ~max_len:10;
    ]

let learn ?(seed = 1L) ?(algorithm = Learn.Ttt_tree) ?(alphabet = Alphabet.all)
    ?client_config ?exec ?checkpoint ~profile () =
  let module Metrics = Prognosis_obs.Metrics in
  let name = profile.Profile.name in
  Metrics.inc
    (Metrics.counter_l Metrics.default "study.learn_runs"
       [ ("study", "quic"); ("profile", name) ]);
  let model, report =
    Pipeline.learn ?exec
      ?checkpoint:
        (Option.map (Checkpoint.start ~kind:("quic-" ^ name)) checkpoint)
      ~subject:("quic:" ^ name) ~seed ~algorithm ~inputs:alphabet
      ~factory:
        (Pipeline.seeded (fun seed ->
             Quic_adapter.sul ~profile ?client_config ~seed ()))
      ~eq:(eq_oracle ~seed) ()
  in
  let adapter, client = Quic_adapter.create ~profile ?client_config ~seed () in
  { model; report; adapter; client }

let compare_profiles ?(seed = 1L) pa pb =
  let a = learn ~seed ~profile:pa () in
  let b = learn ~seed:(Int64.add seed 31L) ~profile:pb () in
  Prognosis_analysis.Model_diff.summarize a.model b.model

let close_reset_rate ?(seed = 9L) ?(runs = 200) profile =
  let sul = Quic_adapter.sul ~profile ~seed () in
  let word =
    Alphabet.[ Initial_crypto; Handshake_ack_hsd; Short_ack_stream ]
  in
  let obs = Nondet.distribution ~runs sul word in
  Nondet.frequency obs (fun answer ->
      match List.rev answer with
      | last :: _ -> last = [ Alphabet.abstract_reset ]
      | [] -> false)

(* --- Issue-4 synthesis --- *)

let input_field_names = [| "pn"; "msd" |]
let output_field_names = [| "pn"; "sdb" |]

(* The Maximum Stream Data value a client packet announces: parsed from
   the ClientHello transport parameters or a MAX_STREAM_DATA frame. *)
let msd_of_packet (p : Packet.t) =
  List.fold_left
    (fun acc frame ->
      match frame with
      | Frame.Max_stream_data { max; _ } -> max
      | Frame.Crypto { data; _ } -> (
          (* "CH:<random>;md=..;msd=.." *)
          match String.index_opt data ';' with
          | None -> acc
          | Some _ ->
              List.fold_left
                (fun acc part ->
                  match String.index_opt part '=' with
                  | Some i when String.sub part 0 i = "msd" ->
                      Option.value
                        (int_of_string_opt
                           (String.sub part (i + 1) (String.length part - i - 1)))
                        ~default:acc
                  | _ -> acc)
                acc
                (String.split_on_char ';' data))
      | _ -> acc)
    0 p.Packet.frames

let sdb_of_packet (p : Packet.t) =
  List.fold_left
    (fun acc frame ->
      match frame with
      | Frame.Stream_data_blocked { max; _ } -> Some max
      | _ -> acc)
    None p.Packet.frames

let fields_in (p : Packet.t) = [| max 0 p.Packet.pn; msd_of_packet p |]

let fields_out packets =
  match packets with
  | [] -> [| None; None |]
  | (first : Packet.t) :: _ ->
      let sdb = List.fold_left (fun acc p ->
          match sdb_of_packet p with Some v -> Some v | None -> acc)
          None packets
      in
      [| (if first.Packet.pn >= 0 then Some first.Packet.pn else None); sdb |]

let witness_traces result words =
  List.map
    (fun word ->
      let _ = Adapter.query result.adapter word in
      match Oracle_table.find result.adapter.Adapter.table word with
      | None -> invalid_arg "Quic_study.witness_traces: query was not recorded"
      | Some entry ->
          List.map2
            (fun (sym, out) (step : _ Oracle_table.step) ->
              let fi =
                match step.Oracle_table.sent with
                | p :: _ -> fields_in p
                | [] -> [| 0; 0 |]
              in
              let fo = fields_out step.Oracle_table.received in
              { Ext_mealy.sym_in = sym; fields_in = fi; sym_out = out; fields_out = fo })
            (List.combine entry.Oracle_table.abstract_inputs
               entry.Oracle_table.abstract_outputs)
            entry.Oracle_table.steps)
    words

let synthesize_sdb ?(nregs = 1) result words =
  let traces = witness_traces result words in
  let cfg =
    {
      (Synthesizer.default_config ~nregs ~in_arity:2 ~out_arity:2) with
      Synthesizer.consts = [ 0 ];
    }
  in
  Synthesizer.solve cfg ~skeleton:result.model ~traces ()

let sdb_verdict machine =
  (* Inspect the sdb output field (index 1) across all transitions. *)
  let skeleton = machine.Ext_mealy.skeleton in
  let constant = ref None and symbolic = ref false and any = ref false in
  for s = 0 to Mealy.size skeleton - 1 do
    for i = 0 to Mealy.alphabet_size skeleton - 1 do
      match machine.Ext_mealy.outputs.(s).(i).(1) with
      | Some (Term.Const c) ->
          any := true;
          (match !constant with
          | None -> constant := Some c
          | Some c' when c' <> c -> symbolic := true
          | Some _ -> ())
      | Some _ ->
          any := true;
          symbolic := true
      | None -> ()
    done
  done;
  if not !any then `Unobserved
  else if !symbolic then `Symbolic
  else match !constant with Some c -> `Constant c | None -> `Unobserved

let packet_number_sequences result words =
  List.map
    (fun word ->
      let _ = Adapter.query result.adapter word in
      match Oracle_table.find result.adapter.Adapter.table word with
      | None -> []
      | Some entry ->
          List.concat_map
            (fun (step : _ Oracle_table.step) ->
              List.filter_map
                (fun (p : Packet.t) ->
                  if p.Packet.ptype = Packet.Short && p.Packet.pn >= 0 then
                    Some p.Packet.pn
                  else None)
                step.Oracle_table.received)
            entry.Oracle_table.steps)
    words

let model_dot model =
  Prognosis_analysis.Visualize.model_dot ~name:"quic"
    ~input_pp:(fun fmt s -> Format.pp_print_string fmt (Alphabet.to_string s))
    ~output_pp:(fun fmt o -> Format.pp_print_string fmt (Alphabet.output_to_string o))
    model
