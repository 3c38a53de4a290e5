(* Quickstart: learn a model of the bundled TCP server — the paper's
   §6.1 case study — in a dozen lines.

   Run with: dune exec examples/quickstart.exe *)

module Mealy = Prognosis_automata.Mealy
module Alphabet = Prognosis_tcp.Tcp_alphabet
open Prognosis

let () =
  (* Learn: TTT algorithm, W-method + random-word equivalence oracle,
     everything seeded and reproducible. *)
  let tcp = Tcp_study.protocol () in
  let model, report = Protocol.learn ~seed:42L tcp in
  Format.printf "learned: %a@.@." Report.pp report;

  (* Replay the 3-way handshake through the learned model. *)
  let handshake = Alphabet.[ Syn; Ack ] in
  let outputs = Mealy.run model handshake in
  Format.printf "3-way handshake in the model:@.";
  List.iter2
    (fun i o ->
      Format.printf "  %-18s -> %s@." (Alphabet.to_string i)
        (Alphabet.output_to_string o))
    handshake outputs;

  (* And a full connection lifecycle: handshake, data, close. *)
  let lifecycle = Alphabet.[ Syn; Ack; Ack_psh; Fin_ack; Ack; Ack ] in
  Format.printf "@.full lifecycle:@.";
  List.iter2
    (fun i o ->
      Format.printf "  %-18s -> %s@." (Alphabet.to_string i)
        (Alphabet.output_to_string o))
    lifecycle
    (Mealy.run model lifecycle);

  (* The model is a plain Mealy machine: render it for humans. *)
  let path = "tcp_model.dot" in
  Prognosis_analysis.Visualize.write_file ~path (Protocol.model_dot tcp model);
  Format.printf "@.Graphviz rendering written to %s@." path
