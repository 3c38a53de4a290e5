(** The nondeterminism check (paper §5, §6.2.4).

    Active learning expects the SUL to answer every query
    deterministically. Environmental effects (loss, latency) can
    nevertheless perturb single runs, so each query is executed a
    minimum number of times; disagreement triggers additional runs
    until either one answer reaches the required agreement fraction or
    the run budget is exhausted, in which case the query is reported as
    genuinely nondeterministic — itself a powerful analysis: this is
    how the paper found the mvfst connection-closure bug. *)

type config = {
  min_runs : int;  (** runs always performed (≥ 1) *)
  max_runs : int;  (** hard budget once disagreement is seen *)
  agreement : float;  (** fraction of runs that must agree, e.g. 0.9 *)
}

val default : config
(** 3 minimum runs, 50 maximum, 0.95 agreement. *)

type 'o observation = { answer : 'o list; count : int }

type 'o verdict =
  | Deterministic of 'o list
  | Nondeterministic of 'o observation list
      (** distinct answers, most frequent first *)

val tally : 'o list list -> 'o observation list
(** The distinct answers with their counts, most frequent first; equal
    counts keep first-seen order. *)

val query : config -> ('i, 'o) Sul.t -> 'i list -> 'o verdict

val distribution : runs:int -> ('i, 'o) Sul.t -> 'i list -> 'o observation list
(** Unconditionally runs the query [runs] times and reports the answer
    distribution (used to measure, e.g., the fraction of RESET
    responses after connection closure). *)

val frequency : 'o observation list -> ('o list -> bool) -> float
(** Fraction of runs whose answer satisfies the predicate. *)

type ('i, 'o) witness = { word : 'i list; answers : 'o observation list }
(** The nondeterminism verdict: a word the implementation answered
    inconsistently, with the answers it gave (at least two, most
    frequent first). *)

exception Nondeterministic of (string, string) witness
(** A learn stopped by a verdict, its witness rendered with the
    protocol's printers ({!Prognosis.Protocol.learn}). *)

val modal_oracle : runs:int -> ('i, 'o) Sul.t -> 'i list -> 'o list
(** A memoized, prefix-consistent query function approximating the
    SUL's *modal* Mealy machine: the answer for a word extends the
    (previously computed) answer of its longest proper prefix by the
    plurality of the final output over [runs] fresh executions. This
    lets the standard deterministic learners run against a genuinely
    stochastic implementation, learning its most-likely behaviour; the
    stochastic annotation pass then quantifies the per-transition
    distributions — a building block for the paper's §8 "environment
    quantities" direction. *)
