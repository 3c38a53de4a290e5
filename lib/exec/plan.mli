(** Pure batch planner for the query-execution engine.

    Given the coded words of one batch (the engine's cache misses,
    coded once by its cache; see {!Engine.membership}), the planner
    decides which words actually need a live SUL run: duplicates
    collapse, and a word that is a prefix of another planned word is
    answered for free from the longer run's per-step outputs. The
    surviving {e maximal} words are ordered to maximize prefix sharing
    across resets (lexicographically by symbol id, so words sharing a
    prefix are adjacent and a worker can resume instead of
    restarting). Ids are handed out in first-seen order, so runs
    execute in that order, not in symbol order. *)

type t = {
  runs : int array;
      (** for each run, in execution order, the index of the submitted
          word it executes: the maximal distinct words; executing
          exactly these answers every word of the batch *)
  cover : int array;
      (** for each submitted word, in submission order, the index in
          [runs] of the run it is a prefix of: its answer is that run's
          outputs cut to the word's length *)
  words : int;  (** words submitted *)
  dupes : int;  (** duplicate occurrences collapsed *)
  subsumed : int;  (** distinct words answered as prefixes of a run *)
}

val build : int array array -> t

val is_prefix : int array -> int array -> bool
(** [is_prefix p w] — is [p] a (non-strict) prefix of [w]? *)
