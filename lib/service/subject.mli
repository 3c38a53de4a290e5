(** Identifiable / learnable protocol subjects.

    A subject names one live endpoint configuration the toolchain can
    both probe (an {!Prognosis_exec.Engine} worker factory over the
    string-level SUL view) and learn in full through
    {!Prognosis.Pipeline.learn} with its protocol study's equivalence
    oracle. The fleet scheduler ({!Service}) and the CLI share it. *)

type t = {
  name : string;  (** e.g. ["tcp:no-challenge"] or ["quic:quiche-like"] *)
  kind : Prognosis.Persist.kind;
  inputs : string array;
      (** string input alphabet, in study order — the alphabet the
          subject is learned over *)
  factory : (string, string) Prognosis.Pipeline.factory;
      (** [factory ~seed ~workers i] is worker [i]'s independent SUL
          instance (per-worker RNG streams split from [seed] by
          {!Prognosis.Pipeline.seeded}) *)
  eq : seed:int64 -> (string, string) Prognosis_learner.Oracle.equivalence;
      (** the protocol study's equivalence oracle over the string
          alphabet ({!Prognosis.Tcp_study.eq_oracle},
          {!Prognosis.Quic_study.eq_oracle},
          {!Prognosis.Dtls_study.eq_oracle} with its scenario words) *)
  learn :
    seed:int64 ->
    algorithm:Prognosis_learner.Learn.algorithm ->
    exec:Prognosis_exec.Engine.config option ->
    (string, string) Prognosis_automata.Mealy.t * Prognosis.Report.t;
      (** {!Prognosis.Pipeline.learn} over [factory] and [eq], returning
          the string-level model plus its report *)
}

val names : string list
(** The accepted {!of_name} spellings (["quic:<profile>"] standing
    for any {!Prognosis_quic.Quic_profile} name). *)

val of_name : string -> (t, string) result

val profile_of_name :
  string -> (Prognosis_quic.Quic_profile.t, string) result
