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

(** Dense int ids for one symbol type. Coding a symbol scans the (at
    most 32) known ones for a physically equal value and hashes it only
    when that fails. Interning publishes an extended immutable snapshot
    with one atomic swap, so a lock-free reader never sees a half-added
    symbol. *)
module Coder : sig
  type 'a t

  val create : unit -> 'a t
  val intern : 'a t -> 'a -> int

  val find : 'a t -> 'a -> int
  (** -1 when the symbol was never interned. *)

  val intern_word : 'a t -> 'a list -> int array

  val symbols : 'a t -> 'a array
  (** id -> symbol, for every id minted so far. *)

  val decode : 'a t -> int array -> 'a list
end

(** The coded face of a membership oracle: words and answers are ids of
    the oracle's two coders. Learners, equivalence suites and the
    engine trade only these. *)
type ('i, 'o) coded = {
  inputs : 'i Coder.t;
  outputs : 'o Coder.t;
  run : int array -> int array;
  run_batch : (int array array -> int array array) option;
      (** Answers a whole array of words in one call, in order. Oracles
          that can plan query execution (the {!Prognosis_exec} engine)
          expose it; [None] means "one word at a time". Batching may
          only change cost, never answers. *)
}

(** [ask] and [ask_batch] (present exactly when [coded.run_batch] is)
    are the symbol views of [coded]: code the word, run it, decode the
    answer. *)
type ('i, 'o) membership = {
  ask : 'i list -> 'o list;
  ask_batch : ('i list list -> 'o list list) option;
  stats : stats;
  coded : ('i, 'o) coded;
}

val of_coded : stats -> ('i, 'o) coded -> ('i, 'o) membership

val of_fun : ?stats:stats -> ('i list -> 'o list) -> ('i, 'o) membership
(** Wraps a raw query function, counting queries and symbols. *)

val count_query : stats -> int -> unit
(** [count_query stats len] counts one query of [len] symbols that
    reached the underlying function (a batched word, say). *)

val run_query : stats -> int -> (unit -> 'a) -> 'a
(** [run_query stats len f] answers a word of [len] symbols by [f ()]:
    counted, timed and traced, as {!of_fun} answers every word. *)

val of_sul : ?stats:stats -> ('i, 'o) Prognosis_sul.Sul.t -> ('i, 'o) membership

type ('i, 'o) equivalence =
  ('i, 'o) membership -> ('i, 'o) Prognosis_automata.Mealy.t -> 'i list option
(** [eq mq hypothesis] is [Some w] for a counterexample word [w] on
    which the SUL (via [mq]) and the hypothesis disagree, or [None] if
    the heuristic search finds no difference. *)

(** {2 A learn's alphabet over the coded face}

    A learner and its equivalence oracles speak in alphabet positions.
    Binding the alphabet to an oracle gives the position -> input id
    table, filled as positions are first asked, so ids keep the
    first-seen order of the queries, and pre-warmed or shared caches
    (where ids need not equal positions) work unchanged. *)

type ('i, 'o) bound

val bind : ('i, 'o) membership -> 'i array -> ('i, 'o) bound
val alphabet : ('i, 'o) bound -> 'i array

val query : ('i, 'o) bound -> int array -> int array
(** The output ids answering a word of positions. The word may reach
    the coded face uncopied, so it must not be written to afterwards. *)

val suffix : ('i, 'o) bound -> int array -> int array -> int array
(** [suffix b u v]: the outputs answering [v] after [u], the tail of
    [query b (u·v)]. *)

val query_batch : ('i, 'o) bound -> (int array array -> int array array) option

val encode : ('i, 'o) bound -> 'i list -> int array
(** A word's positions; never mints an id.
    @raise Invalid_argument naming a symbol outside the alphabet. *)

val output : ('i, 'o) bound -> int -> 'o
val equal_ids : int array -> int array -> bool

val replay :
  ('i, 'o) bound -> ('i, 'o) Prognosis_automata.Mealy.t -> int array -> int array
(** [replay b h] answers words of positions as hypothesis [h] does, in
    the oracle's output ids: [h] runs on its packed form, and its
    outputs map through one output-id table, built once per [replay b h]
    (per hypothesis). *)
