(** The QUIC case study (paper §6.2): the profiled QUIC servers'
    descriptors, the nondeterminism measurement behind Issue 2, and the
    fields and verdict of the Issue-4 synthesis. *)

module Alphabet = Prognosis_quic.Quic_alphabet
module Profile = Prognosis_quic.Quic_profile

val protocol :
  ?alphabet:Alphabet.symbol array ->
  ?client_config:Prognosis_quic.Quic_client.config ->
  Profile.t ->
  (Alphabet.symbol, Alphabet.output) Protocol.t
(** Subject ["quic:<profile>"]; equivalence oracle: W-method with one
    extra state, then 400 seeded random words of length 1–10.
    [alphabet] defaults to the paper's seven symbols ({!Alphabet.all});
    pass {!Alphabet.extended} for the nine-symbol variant used by the
    alphabet-size ablation. The checkpoint kind [quic-<profile>] is
    profile-qualified, so a snapshot made against one profile refuses
    to resume another. *)

val close_reset_rate : ?seed:int64 -> ?runs:int -> Profile.t -> float
(** The Issue-2 measurement: close the connection with a client-sent
    HANDSHAKE_DONE, then probe repeatedly and report the fraction of
    probes answered with a Stateless Reset (paper: 82% for mvfst). *)

(** {2 Issue-4 synthesis}

    Pair these with an adapter from
    {!Prognosis_quic.Quic_adapter.create}. *)

val fields :
  (Prognosis_quic.Quic_packet.t, Prognosis_quic.Quic_packet.t) Protocol.fields
(** Inputs [pn; msd] — packet number and the Maximum Stream Data value
    carried by the packet (transport parameter or MAX_STREAM_DATA
    frame), 0 when absent. Outputs [pn; sdb] — packet number and the
    Maximum Stream Data field of a STREAM_DATA_BLOCKED frame,
    unconstrained when absent. *)

val sdb_verdict :
  (Alphabet.symbol, Alphabet.output) Prognosis_synthesis.Ext_mealy.t ->
  [ `Constant of int | `Symbolic | `Unobserved ]
(** Issue-4 detector on the machine {!Protocol.synthesize} builds from
    {!fields} (paper Appendix B.1): [`Constant 0] is the Google bug; a
    compliant implementation yields [`Symbolic]. *)

val packet_number_sequences :
  ( Alphabet.symbol,
    Alphabet.output,
    Prognosis_quic.Quic_packet.t,
    Prognosis_quic.Quic_packet.t )
  Prognosis_sul.Adapter.t ->
  Alphabet.symbol list list ->
  int list list
(** Per-query sequences of application-space packet numbers observed
    from the server (for the "packet numbers always increasing"
    property). *)
