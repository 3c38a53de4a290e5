(* A third protocol through the same engine: MiniDTLS.

   The paper's first contribution is modularity — "different protocols
   and protocol implementations can easily be swapped without changes
   to the learning engine". This example learns a model of the
   MiniDTLS server (cookie exchange, handshake, epoch switch, echo
   service) using exactly the learner, oracles and analyses the TCP and
   QUIC studies use, then shows how a server configuration choice (is
   the stateless-cookie round-trip required?) is immediately visible as
   a different learned model, just like QUIC's Retry in Issue 1.

   Run with: dune exec examples/dtls_walkthrough.exe *)

module Mealy = Prognosis_automata.Mealy
module Alphabet = Prognosis_dtls.Dtls_alphabet
open Prognosis

let print_run model word =
  List.iter2
    (fun i o ->
      Format.printf "  %-24s -> %s@." (Alphabet.to_string i)
        (Alphabet.output_to_string o))
    word (Mealy.run model word)

let () =
  let dtls = Dtls_study.protocol () in
  let with_cookie, report = Protocol.learn ~seed:2026L dtls in
  Format.printf "cookie-validating server: %a@.@." Report.pp report;

  Format.printf "full lifecycle in the learned model:@.";
  print_run with_cookie
    Alphabet.
      [
        Client_hello;
        Client_hello;
        Client_key_exchange;
        Change_cipher_spec;
        Finished;
        App_data;
        Alert_close;
      ];

  (* Skipping the cookie round-trip: the server just repeats the
     HELLO_VERIFY_REQUEST — address validation, DTLS's Retry. *)
  Format.printf "@.skipping the cookie (handshake cannot progress):@.";
  print_run with_cookie
    Alphabet.[ Client_hello; Client_key_exchange; Finished ];

  (* A no-cookie server learns a different, smaller model. *)
  let no_cookie, report =
    Protocol.learn ~seed:2027L
      (Dtls_study.protocol
         ~server_config:
           { Prognosis_dtls.Dtls_server.require_cookie = false; strict_ccs = true }
         ())
  in
  Format.printf "@.no-cookie server: %a@." Report.pp report;
  let summary =
    Prognosis_analysis.Model_diff.summarize ~max_witnesses:1
      with_cookie no_cookie
  in
  (match summary.Prognosis_analysis.Model_diff.witnesses with
  | w :: _ ->
      Format.printf "first divergence on %s:@."
        (String.concat " "
           (List.map Alphabet.to_string w.Prognosis_analysis.Model_diff.word));
      Format.printf "  cookie    : %s@."
        (String.concat " "
           (List.map Alphabet.output_to_string
              w.Prognosis_analysis.Model_diff.outputs_a));
      Format.printf "  no cookie : %s@."
        (String.concat " "
           (List.map Alphabet.output_to_string
              w.Prognosis_analysis.Model_diff.outputs_b))
  | [] -> Format.printf "models unexpectedly equivalent@.");

  Prognosis_analysis.Visualize.write_file ~path:"dtls_model.dot"
    (Protocol.model_dot dtls with_cookie);
  Format.printf "@.model written to dtls_model.dot@."
