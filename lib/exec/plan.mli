(** Pure batch planner for the query-execution engine.

    Given the words of one batch (the engine's cache misses; see
    {!Engine.membership}), the planner decides which words actually
    need a live SUL run: duplicates collapse, and a word that is a
    prefix of another planned word is answered for free from the
    longer run's per-step outputs. The surviving {e maximal} words are
    ordered to maximize prefix sharing across resets
    (lexicographically, so words sharing a prefix are adjacent and a
    worker can resume instead of restarting). *)

type 'i t = {
  runs : 'i list list;
      (** maximal distinct words, in execution order; executing exactly
          these answers every word of the batch *)
  cover : int array;
      (** for each submitted word, in submission order, the index in
          [runs] of the run it is a prefix of: its answer is that run's
          outputs cut to the word's length *)
  words : int;  (** words submitted *)
  dupes : int;  (** duplicate occurrences collapsed *)
  subsumed : int;  (** distinct words answered as prefixes of a run *)
}

val build : 'i list list -> 'i t

val is_prefix : 'i list -> 'i list -> bool
(** [is_prefix p w] — is [p] a (non-strict) prefix of [w]? *)
