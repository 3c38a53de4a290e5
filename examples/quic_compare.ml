(* Cross-implementation comparison (the paper's §6.2.3 and §6.2.5):
   learn models of two QUIC server behaviours and diff them.

   The tolerant-retry and strict-retry profiles encode the two sides of
   the RFC ambiguity behind the paper's Issue 1 — what a server does
   when the client resets its packet-number spaces after a Retry. The
   learned models have different sizes, and the shortest distinguishing
   traces show exactly where the behaviours fork; the paper reported
   this divergence to the IETF QUIC working group, which clarified the
   specification.

   The second half reproduces Issue 3: with the QUIC-Tracker retry-port
   bug enabled in the reference client, connection establishment after
   a Retry becomes impossible — visible as yet another model change.

   Run with: dune exec examples/quic_compare.exe *)

module Model_diff = Prognosis_analysis.Model_diff
module Profile = Prognosis_quic.Quic_profile
open Prognosis

let pp_witness w =
  Format.printf "  input   : %s@."
    (String.concat " " (List.map Quic_study.Alphabet.to_string w.Model_diff.word));
  Format.printf "  model A : %s@."
    (String.concat " "
       (List.map Quic_study.Alphabet.output_to_string w.Model_diff.outputs_a));
  Format.printf "  model B : %s@.@."
    (String.concat " "
       (List.map Quic_study.Alphabet.output_to_string w.Model_diff.outputs_b))

let () =
  (* --- Issue 1: divergent post-Retry packet-number-space handling --- *)
  Format.printf "=== Issue 1: RFC imprecision around Retry ===@.@.";
  let learn ~seed ?client_config profile =
    Protocol.learn ~seed (Quic_study.protocol ?client_config profile)
  in
  let tolerant, tolerant_report = learn ~seed:1L Profile.google_like in
  let strict, strict_report = learn ~seed:2L Profile.strict_retry in
  Format.printf "tolerant : %a@." Report.pp tolerant_report;
  Format.printf "strict   : %a@.@." Report.pp strict_report;
  let summary = Model_diff.summarize ~max_witnesses:3 tolerant strict in
  Format.printf
    "model sizes differ (%d vs %d states) — the signal that led the paper to \
     the RFC ambiguity. Shortest distinguishing traces:@.@."
    summary.Model_diff.states_a summary.Model_diff.states_b;
  List.iter pp_witness summary.Model_diff.witnesses;

  (* --- Issue 3: the reference client's retry-port bug --- *)
  Format.printf "=== Issue 3: inconsistent port on Retry (QUIC-Tracker bug) ===@.@.";
  let healthy, _ = learn ~seed:3L Profile.google_like in
  let buggy, _ =
    learn ~seed:4L Profile.google_like
      ~client_config:
        { Prognosis_quic.Quic_client.retry_port_bug = true; pns_reset_on_retry = true }
  in
  let summary = Model_diff.summarize ~max_witnesses:2 healthy buggy in
  Format.printf
    "with the port bug, the model collapses to %d states (healthy: %d): after \
     a RETRY the handshake can never complete, because the token is echoed \
     from a fresh random port and address validation fails.@.@."
    summary.Model_diff.states_b summary.Model_diff.states_a;
  List.iter pp_witness summary.Model_diff.witnesses;
  let dot =
    Prognosis_analysis.Visualize.diff_dot ~input_pp:Quic_study.Alphabet.pp
      ~output_pp:Quic_study.Alphabet.pp_output healthy buggy
  in
  Prognosis_analysis.Visualize.write_file ~path:"quic_retry_diff.dot" dot;
  Format.printf "product-machine diff written to quic_retry_diff.dot@."
