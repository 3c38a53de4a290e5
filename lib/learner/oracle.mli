(** Query oracles for the Minimally Adequate Teacher framework
    (paper §4.1).

    A membership oracle answers "if I send this input word, what does
    the implementation return?"; an equivalence oracle searches for a
    word on which a hypothesis machine and the implementation disagree.
    Both carry statistics so experiments can report query counts as the
    paper does. *)

type stats = {
  mutable membership_queries : int;
  mutable membership_symbols : int;
  mutable equivalence_queries : int;
  mutable test_words : int;  (** words executed by equivalence testing *)
}

val fresh_stats : unit -> stats

type ('i, 'o) membership = {
  ask : 'i list -> 'o list;
  ask_batch : ('i list list -> 'o list list) option;
      (** Optional bulk entry point: answers a whole list of words in
          one call, one answer per word, in order. Oracles that can
          plan query execution (the {!Prognosis_exec} engine) expose
          it; consumers must treat [None] as "ask one word at a time".
          Semantically [ask_batch ws = List.map ask ws] — batching may
          only change cost, never answers. *)
  stats : stats;
}

val of_fun : ?stats:stats -> ('i list -> 'o list) -> ('i, 'o) membership
(** Wraps a raw query function, counting queries and symbols. *)

val count_query : stats -> int -> unit
(** [count_query stats len] counts one query of [len] symbols that
    reached the underlying function (a batched word, say). *)

val run_query : stats -> int -> (unit -> 'o list) -> 'o list
(** [run_query stats len f] is {!of_fun}'s [ask] for a word of [len]
    symbols answered by [f ()]: counted, timed and traced. *)

val of_sul : ?stats:stats -> ('i, 'o) Prognosis_sul.Sul.t -> ('i, 'o) membership

type ('i, 'o) equivalence =
  ('i, 'o) membership -> ('i, 'o) Prognosis_automata.Mealy.t -> 'i list option
(** [eq mq hypothesis] is [Some w] for a counterexample word [w] on
    which the SUL (via [mq]) and the hypothesis disagree, or [None] if
    the heuristic search finds no difference. *)
