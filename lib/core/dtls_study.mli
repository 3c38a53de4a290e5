(** The MiniDTLS study pipeline: the third protocol wired through the
    identical learning stack — the concrete demonstration of the
    paper's claim that "different protocols and protocol
    implementations can easily be swapped without changes to the
    learning engine" (contribution 1). *)

module Alphabet = Prognosis_dtls.Dtls_alphabet

type model = (Alphabet.symbol, Alphabet.output) Prognosis_automata.Mealy.t

type result = {
  model : model;
  report : Report.t;
  adapter :
    ( Alphabet.symbol,
      Alphabet.output,
      Prognosis_dtls.Dtls_wire.record_,
      Prognosis_dtls.Dtls_wire.record_ )
    Prognosis_sul.Adapter.t;
  client : Prognosis_dtls.Dtls_client.t;
}

val eq_oracle :
  symbol:(Alphabet.symbol -> 'i) ->
  seed:int64 ->
  ('i, 'o) Prognosis_learner.Oracle.equivalence
(** The study's equivalence oracle: four handshake scenario words
    (random testing practically never completes the five-symbol
    handshake), then W-method with one extra state, then 400 seeded
    random words of length 1–10. [symbol] renders the scenario words
    in the learner's alphabet ([Fun.id] for the typed one). *)

val learn :
  ?seed:int64 ->
  ?algorithm:Prognosis_learner.Learn.algorithm ->
  ?server_config:Prognosis_dtls.Dtls_server.config ->
  ?exec:Prognosis_exec.Engine.config ->
  ?checkpoint:Prognosis_learner.Checkpoint.spec ->
  unit ->
  result
(** Learns through {!Pipeline.learn} with {!eq_oracle}. With [?exec],
    the report carries an [exec] stats section. With [?checkpoint], the
    run snapshots and resumes per the spec; may raise
    {!Prognosis_learner.Checkpoint.Budget_exhausted}. *)

val model_dot : model -> string
