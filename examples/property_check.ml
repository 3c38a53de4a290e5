(* Property checking across QUIC profiles (the paper's §5 and §6.2.2,
   plus the Issue-4 synthesis of §6.2.6).

   Three kinds of checks:
   1. temporal safety on the learned model (model-checking by product
      construction — decidable for Mealy machines),
   2. numeric properties on concrete observations ("packet numbers are
      always increasing", "NEW_CONNECTION_ID sequence numbers increase
      by 1", "no data beyond the advertised flow-control limit"),
   3. the synthesized extended machine over the STREAM_DATA_BLOCKED
      Maximum Stream Data field, which exposes Google QUIC's constant-0
      placeholder (Issue 4).

   Run with: dune exec examples/property_check.exe *)

module Safety = Prognosis_analysis.Safety
module Profile = Prognosis_quic.Quic_profile
module Frame = Prognosis_quic.Frame
open Prognosis

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

let has_frame kind (out : Quic_study.Alphabet.output) =
  List.exists
    (fun (a : Quic_study.Alphabet.apacket) ->
      List.mem kind a.Quic_study.Alphabet.frames)
    out

let examine profile =
  Format.printf "=== %s ===@." profile.Profile.name;
  let model, _ = Protocol.learn ~seed:11L (Quic_study.protocol profile) in
  let adapter, client =
    Prognosis_quic.Quic_adapter.create ~profile ~seed:11L ()
  in

  (* 1. temporal safety on the learned model *)
  let silent_after_close =
    Safety.after_always "after CONNECTION_CLOSE, no stream data"
      ~trigger:(fun (_, o) -> has_frame Frame.K_connection_close o)
      ~then_:(fun (_, o) -> not (has_frame Frame.K_stream o))
  in
  let hsd_at_most_once =
    Safety.after_always "HANDSHAKE_DONE is sent at most once"
      ~trigger:(fun (_, o) -> has_frame Frame.K_handshake_done o)
      ~then_:(fun (_, o) -> not (has_frame Frame.K_handshake_done o))
  in
  List.iter
    (fun prop ->
      match Safety.check prop model with
      | None -> Format.printf "[ok]   %s@." (Safety.name prop)
      | Some word ->
          Format.printf "[FAIL] %s@.       witness: %s@." (Safety.name prop)
            (String.concat " " (List.map Quic_study.Alphabet.to_string word)))
    [ silent_after_close; hsd_at_most_once ];

  (* 2. numeric trace properties *)
  List.iter
    (fun pns ->
      if List.length pns >= 2 then
        Format.printf "[%s]   packet numbers %s: %a@."
          (match Safety.strictly_increasing pns with
          | Safety.Holds -> "ok"
          | Safety.Violated _ -> "FAIL")
          (String.concat "," (List.map string_of_int pns))
          Safety.pp_verdict
          (Safety.strictly_increasing pns))
    (Quic_study.packet_number_sequences adapter words);
  let ncids = Prognosis_quic.Quic_client.ncid_sequence_numbers client in
  if ncids <> [] then
    Format.printf "[%s]   NEW_CONNECTION_ID seqs %s must increase by 1: %a@."
      (match Safety.increases_by ~stride:1 ncids with
      | Safety.Holds -> "ok"
      | Safety.Violated _ -> "FAIL")
      (String.concat "," (List.map string_of_int ncids))
      Safety.pp_verdict
      (Safety.increases_by ~stride:1 ncids);
  Format.printf "[%s]   no data beyond the advertised stream limit@."
    (if Prognosis_quic.Quic_client.flow_violation client then "FAIL" else "ok");

  (* 3. the Issue-4 synthesized machine *)
  (match Protocol.synthesize Quic_study.fields adapter model words with
  | Error e -> Format.printf "[??]   sdb synthesis failed: %s@." e
  | Ok machine -> (
      match Quic_study.sdb_verdict machine with
      | `Constant c ->
          Format.printf
            "[FAIL] STREAM_DATA_BLOCKED Maximum Stream Data is the constant %d \
             (Issue 4: a forgotten placeholder)@."
            c
      | `Symbolic ->
          Format.printf
            "[ok]   STREAM_DATA_BLOCKED Maximum Stream Data tracks the blocked \
             offset@."
      | `Unobserved -> Format.printf "[--]   no STREAM_DATA_BLOCKED observed@."));
  Format.printf "@."

let () =
  List.iter examine
    [ Profile.quiche_like; Profile.google_like; Profile.ncid_buggy ]
