module Mealy = Prognosis_automata.Mealy
module Adapter = Prognosis_sul.Adapter
module Oracle_table = Prognosis_sul.Oracle_table
module Nondet = Prognosis_sul.Nondet
module Ext_mealy = Prognosis_synthesis.Ext_mealy
module Term = Prognosis_synthesis.Term
module Alphabet = Prognosis_quic.Quic_alphabet
module Profile = Prognosis_quic.Quic_profile
module Packet = Prognosis_quic.Quic_packet
module Frame = Prognosis_quic.Frame
module Quic_adapter = Prognosis_quic.Quic_adapter

let protocol ?(alphabet = Alphabet.all) ?client_config profile =
  {
    Protocol.name = "quic:" ^ profile.Profile.name;
    kind = Persist.Quic_model;
    inputs = alphabet;
    input_to_string = Alphabet.to_string;
    output_to_string = Alphabet.output_to_string;
    sul =
      (fun ~seed -> Quic_adapter.sul ~profile ?client_config ~seed ());
    scenarios = [];
    random_words = 400;
    max_len = 10;
  }

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

let fields =
  {
    Protocol.names_in = [| "pn"; "msd" |];
    names_out = [| "pn"; "sdb" |];
    of_sent =
      (function
      | (p : Packet.t) :: _ -> [| max 0 p.Packet.pn; msd_of_packet p |]
      | [] -> [| 0; 0 |]);
    of_received =
      (function
      | [] -> [| None; None |]
      | (first : Packet.t) :: _ as packets ->
          let sdb =
            List.fold_left
              (fun acc p ->
                match sdb_of_packet p with Some v -> Some v | None -> acc)
              None packets
          in
          let pn = if first.Packet.pn >= 0 then Some first.Packet.pn else None in
          [| pn; sdb |]);
  }

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

let packet_number_sequences adapter words =
  List.map
    (fun word ->
      ignore (Adapter.query adapter word);
      match Oracle_table.find adapter.Adapter.table word with
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
