(** The QUIC case study pipeline (paper §6.2): learn models of the
    profiled QUIC servers, compare them, run the nondeterminism check,
    and synthesize the extended machine behind Issue 4. *)

module Alphabet = Prognosis_quic.Quic_alphabet
module Profile = Prognosis_quic.Quic_profile

type model = (Alphabet.symbol, Alphabet.output) Prognosis_automata.Mealy.t

type result = {
  model : model;
  report : Report.t;
  adapter :
    ( Alphabet.symbol,
      Alphabet.output,
      Prognosis_quic.Quic_packet.t,
      Prognosis_quic.Quic_packet.t )
    Prognosis_sul.Adapter.t;
  client : Prognosis_quic.Quic_client.t;
}

val eq_oracle : seed:int64 -> ('i, 'o) Prognosis_learner.Oracle.equivalence
(** The study's equivalence oracle: W-method with one extra state, then
    400 seeded random words of length 1–10. *)

val learn :
  ?seed:int64 ->
  ?algorithm:Prognosis_learner.Learn.algorithm ->
  ?alphabet:Alphabet.symbol array ->
  ?client_config:Prognosis_quic.Quic_client.config ->
  ?exec:Prognosis_exec.Engine.config ->
  ?checkpoint:Prognosis_learner.Checkpoint.spec ->
  profile:Profile.t ->
  unit ->
  result
(** Learns through {!Pipeline.learn} with {!eq_oracle}. [alphabet]
    defaults to the paper's seven symbols ({!Alphabet.all}); pass
    {!Alphabet.extended} for the nine-symbol variant used by the
    alphabet-size ablation. With [?exec], the report carries an [exec]
    stats section. With [?checkpoint], the run snapshots and resumes
    per the spec (the checkpoint kind is profile-qualified, so a
    snapshot made against one profile refuses to resume another); may
    raise {!Prognosis_learner.Checkpoint.Budget_exhausted}. *)

val compare_profiles :
  ?seed:int64 ->
  Profile.t ->
  Profile.t ->
  (Alphabet.symbol, Alphabet.output) Prognosis_analysis.Model_diff.summary
(** Learn both and diff the models (the Issue-1/Issue-3 analysis). *)

val close_reset_rate : ?seed:int64 -> ?runs:int -> Profile.t -> float
(** The Issue-2 measurement: close the connection with a client-sent
    HANDSHAKE_DONE, then probe repeatedly and report the fraction of
    probes answered with a Stateless Reset (paper: 82% for mvfst). *)

(** {2 Issue-4 synthesis} *)

val input_field_names : string array
(** [pn; msd] — packet number and the Maximum Stream Data value carried
    by the packet (transport parameter or MAX_STREAM_DATA frame),
    0 when absent. *)

val output_field_names : string array
(** [pn; sdb] — packet number and the Maximum Stream Data field of a
    STREAM_DATA_BLOCKED frame, unconstrained when absent. *)

val synthesize_sdb :
  ?nregs:int ->
  result ->
  Alphabet.symbol list list ->
  ( (Alphabet.symbol, Alphabet.output) Prognosis_synthesis.Ext_mealy.t,
    string )
  Stdlib.result
(** Synthesize the extended machine over the STREAM_DATA_BLOCKED
    Maximum Stream Data field (paper Appendix B.1). *)

val sdb_verdict :
  (Alphabet.symbol, Alphabet.output) Prognosis_synthesis.Ext_mealy.t ->
  [ `Constant of int | `Symbolic | `Unobserved ]
(** Issue-4 detector on the synthesized machine: [`Constant 0] is the
    Google bug; a compliant implementation yields [`Symbolic]. *)

val packet_number_sequences : result -> Alphabet.symbol list list -> int list list
(** Per-query sequences of application-space packet numbers observed
    from the server (for the "packet numbers always increasing"
    property). *)

val model_dot : model -> string
