(** Protocol descriptors (paper §3, contribution 1: a protocol joins
    Prognosis by supplying an adapter and an alphabet). A descriptor is
    one value holding everything the pipeline needs to learn one
    implementation; {!learn} is the one typed learn over it. The case
    studies ({!Tcp_study}, {!Quic_study}, {!Dtls_study}) each build
    theirs, and [Prognosis_service.Subject] wraps one for the fleet. *)

type ('i, 'o) t = {
  name : string;
      (** the report subject, e.g. ["tcp"] or ["quic:quiche-like"]; with
          [':'] read as ['-'] it is also the checkpoint kind *)
  kind : Persist.kind;
  inputs : 'i array;  (** the input alphabet, in learning order *)
  input_to_string : 'i -> string;
  output_to_string : 'o -> string;
  sul : seed:int64 -> ('i, 'o) Prognosis_sul.Sul.t;
      (** one independent implementation instance per seed *)
  scenarios : 'i list list;
      (** words the equivalence oracle tests first: deep paths random
          testing practically never finds (the DTLS handshake) *)
  random_words : int;  (** seeded random test words per round *)
  max_len : int;  (** their maximum length (the minimum is 1) *)
}

val eq_oracle :
  ('i, 'o) t -> seed:int64 -> ('i, 'o) Prognosis_learner.Oracle.equivalence
(** The scenario words, then the W-method suite with one extra state,
    then [random_words] random words of length 1–[max_len] drawn from
    a stream seeded by [seed]. *)

val factory : ('i, 'o) t -> ('i, 'o) Pipeline.factory
(** [factory d ~seed ~workers i] is worker [i]'s SUL: [seed] split into
    [workers] independent streams ({!Prognosis_sul.Rng.split_n}), the
    one seed split every learn uses. *)

val learn :
  ?seed:int64 ->
  ?algorithm:Prognosis_learner.Learn.algorithm ->
  ?exec:Prognosis_exec.Engine.config ->
  ?checkpoint:Prognosis_learner.Checkpoint.spec ->
  ('i, 'o) t ->
  ('i, 'o) Prognosis_automata.Mealy.t * Report.t
(** Learns the descriptor's implementation (seed 1, TTT by default)
    through {!Pipeline.learn} with {!eq_oracle}, and counts the run in
    [study.learn_runs]. [?exec] sizes the query-execution pool; the
    report then carries an [exec] stats section. With [?checkpoint],
    the run snapshots its query cache (and the engine's robustness
    bookkeeping) into the spec's directory and, when the spec says
    [resume], restarts from the last snapshot — see
    {!Prognosis_learner.Checkpoint}. May raise
    {!Prognosis_learner.Checkpoint.Budget_exhausted} when the spec
    carries a query budget.
    @raise Prognosis_sul.Nondet.Nondeterministic with the
    {!Pipeline.learn} verdict, rendered with the descriptor's
    printers. *)

val strings : ('i, 'o) t -> (string, string) t
(** The same protocol seen at the string level: printed alphabet and
    scenarios, and a SUL wrapped by {!Prognosis_sul.Sul.strings}. Learns
    the same model in printed form. *)

val model_dot : ('i, 'o) t -> ('i, 'o) Prognosis_automata.Mealy.t -> string
(** Graphviz rendering, the graph named after the descriptor's kind. *)

(** {2 Synthesis witnesses}

    Register synthesis (paper §4.3) mines the concrete packets an
    adapter's Oracle Table recorded; a protocol supplies which numeric
    fields of those packets the machine ranges over. *)

type ('ci, 'co) fields = {
  names_in : string array;
  names_out : string array;
  of_sent : 'ci list -> int array;
      (** input fields of the packets sent on one step *)
  of_received : 'co list -> int option array;
      (** output fields of the packets received on one step; [None]
          leaves a field unconstrained *)
}

val synthesize :
  ?nregs:int ->
  ('ci, 'co) fields ->
  ('i, 'o, 'ci, 'co) Prognosis_sul.Adapter.t ->
  ('i, 'o) Prognosis_automata.Mealy.t ->
  'i list list ->
  (('i, 'o) Prognosis_synthesis.Ext_mealy.t, string) result
(** Register updates and output terms (constants [0], one register by
    default) over the model as skeleton. The witness traces come from
    replaying each word through the adapter and reading back its Oracle
    Table record. *)
