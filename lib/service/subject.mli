(** Identifiable / learnable protocol subjects.

    A subject is one protocol descriptor ({!Prognosis.Protocol.t}) seen
    at the string level, so endpoints of every protocol fit one type:
    it can be probed (an {!Prognosis_exec.Engine} worker factory over
    the string SUL view) and learned in full. The fleet scheduler
    ({!Service}) and the CLI share it. *)

type t = {
  name : string;  (** e.g. ["tcp:no-challenge"] or ["quic:quiche-like"] *)
  kind : Prognosis.Persist.kind;
  inputs : string array;
      (** string input alphabet, in study order — the alphabet the
          subject is learned over *)
  factory : (string, string) Prognosis.Pipeline.factory;
      (** [factory ~seed ~workers i] is worker [i]'s independent SUL
          instance (per-worker RNG streams split from [seed] by
          {!Prognosis.Protocol.factory}) *)
  eq : seed:int64 -> (string, string) Prognosis_learner.Oracle.equivalence;
      (** the descriptor's {!Prognosis.Protocol.eq_oracle} over the
          string alphabet *)
  learn :
    seed:int64 ->
    algorithm:Prognosis_learner.Learn.algorithm ->
    exec:Prognosis_exec.Engine.config option ->
    (string, string) Prognosis_automata.Mealy.t * Prognosis.Report.t;
      (** {!Prognosis.Protocol.learn} over the typed descriptor, the
          model rendered to strings once at the end, plus its report.
          It learns the same model with the same counters as
          {!Prognosis.Pipeline.learn} over [factory] and [eq]. *)
}

val make : ('i, 'o) Prognosis.Protocol.t -> t
(** The subject of a descriptor, named after it. *)

val names : string list
(** The accepted {!of_name} spellings (["quic:<profile>"] standing
    for any {!Prognosis_quic.Quic_profile} name). *)

val of_name : string -> (t, string) result

val profile_of_name :
  string -> (Prognosis_quic.Quic_profile.t, string) result
