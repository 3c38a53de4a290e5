(** Model-based test-suite generation from Mealy machines.

    Implements the classical W-method and Wp-method [Chow 1978;
    Fujiwara et al. 1991] used both as heuristic equivalence oracles
    during learning and to quantify the trace reduction reported in the
    paper (§6.2.2): exhaustive exploration needs Σ_{k≤10} |Σ|^k traces,
    while a conformance suite derived from the learned model needs only
    on the order of a thousand. *)

val state_cover : ('i, 'o) Mealy.t -> 'i list list
(** One access word per reachable state (the empty word for the initial
    state). *)

val transition_cover : ('i, 'o) Mealy.t -> 'i list list
(** Access words for every transition of every reachable state. *)

val middle_words : 'i array -> int -> 'i list list
(** [middle_words alphabet k] is all words of length ≤ [k] (including
    the empty word) over the alphabet. *)

val w_method : ?extra_states:int -> ('i, 'o) Mealy.t -> 'i list list
(** The W-method suite [P · Σ^{≤e} · W] where [P] is the transition
    cover, [e = extra_states] (default 0) and [W] the characterizing
    set. Words are deduplicated; prefixes of retained words are not
    removed. *)

val wp_method : ?extra_states:int -> ('i, 'o) Mealy.t -> 'i list list
(** The Wp-method suite: like the W-method but phase two uses
    state-local identification sets, producing smaller suites. *)

val w_method_ids : ?extra_states:int -> ('i, 'o) Mealy.t -> int array list
val wp_method_ids : ?extra_states:int -> ('i, 'o) Mealy.t -> int array list
(** {!w_method} and {!wp_method} as alphabet positions, in the same
    order: the suites the equivalence oracles run. Each candidate
    (prefix · middle · suffix, in cover, middle and suffix order) is
    walked into a trie over positions and copied out only when its
    walk ends on a node no earlier candidate ended on, so a suite is
    its candidates' first occurrences and allocates only the words it
    keeps. Every word is a fresh array. *)

val middle_ids : int -> int -> int array list
(** [middle_ids n k] is {!middle_words} over an alphabet of [n]
    symbols, as positions. *)

val suite_size : 'i list list -> int
val suite_symbols : 'i list list -> int
(** Total number of input symbols across a suite. *)
