(** The TCP case study pipeline (paper §6.1): learn a model of the TCP
    server, report statistics, and synthesize a register-extended
    machine for the sequence/acknowledgement numbers from the Oracle
    Table (Figure 3(c)). *)

module Alphabet = Prognosis_tcp.Tcp_alphabet

type model = (Alphabet.symbol, Alphabet.output) Prognosis_automata.Mealy.t

type result = {
  model : model;
  report : Report.t;
  adapter :
    ( Alphabet.symbol,
      Alphabet.output,
      Prognosis_tcp.Tcp_wire.segment,
      Prognosis_tcp.Tcp_wire.segment )
    Prognosis_sul.Adapter.t;
}

val eq_oracle : seed:int64 -> ('i, 'o) Prognosis_learner.Oracle.equivalence
(** The study's equivalence oracle: W-method with one extra state, then
    500 seeded random words of length 1–12. *)

val learn :
  ?seed:int64 ->
  ?algorithm:Prognosis_learner.Learn.algorithm ->
  ?server_config:Prognosis_tcp.Tcp_server.config ->
  ?exec:Prognosis_exec.Engine.config ->
  ?checkpoint:Prognosis_learner.Checkpoint.spec ->
  unit ->
  result
(** Learns through {!Pipeline.learn} with {!eq_oracle}. [?exec] sizes
    the query-execution pool (workers seeded by {!Pipeline.seeded});
    the report then carries an [exec] stats section. With
    [?checkpoint], the run snapshots its query cache (and the engine's
    robustness bookkeeping) into the spec's directory and, when the
    spec says [resume], restarts from the last snapshot — see
    {!Prognosis_learner.Checkpoint}. May raise
    {!Prognosis_learner.Checkpoint.Budget_exhausted} when the spec
    carries a query budget. *)

val input_field_names : string array
(** [seq; ack; len] — the concrete fields synthesis ranges over. *)

val output_field_names : string array
(** [seq; ack]; the server-chosen initial sequence number is left
    unconstrained. *)

val witness_traces :
  result ->
  Alphabet.symbol list list ->
  (Alphabet.symbol, Alphabet.output) Prognosis_synthesis.Ext_mealy.trace list
(** Replay the given abstract words through the adapter and convert the
    Oracle Table records into synthesis traces. *)

val synthesize :
  ?nregs:int ->
  result ->
  Alphabet.symbol list list ->
  ( (Alphabet.symbol, Alphabet.output) Prognosis_synthesis.Ext_mealy.t,
    string )
  Stdlib.result
(** Synthesize register updates and output terms over seq/ack numbers
    from witness traces for the given words. *)

val model_dot : model -> string
