(** Heuristic equivalence oracles (paper §4.1).

    True equivalence queries would require an omniscient oracle, so
    hypotheses are tested: a returned counterexample is always genuine,
    while "no counterexample" only means none was found by the chosen
    test strategy.

    Every oracle here runs its words through one coded runner: words
    are alphabet positions ({!Oracle.bind}) and answers are compared
    with the hypothesis's as output ids ({!Oracle.replay}). When the
    membership oracle batches ([coded.run_batch], see
    {!Oracle.coded}), words run in chunks of 128 — the engine behind
    the batch shares resets across prefix-related words — and the first
    counterexample in suite order is still the one returned. With a
    plain oracle a chunk is one word. A word holding a symbol outside
    the hypothesis's alphabet raises [Invalid_argument]. *)

val random_words :
  rng:Prognosis_sul.Rng.t ->
  max_tests:int ->
  min_len:int ->
  max_len:int ->
  ('i, 'o) Oracle.equivalence
(** Uniformly random input words of length in [min_len, max_len]. *)

val random_walk :
  rng:Prognosis_sul.Rng.t ->
  max_tests:int ->
  stop_prob:float ->
  ('i, 'o) Oracle.equivalence
(** Random words with geometrically distributed length: after each
    symbol the walk stops with probability [stop_prob]. *)

val w_method : ?extra_states:int -> unit -> ('i, 'o) Oracle.equivalence
(** Conformance testing with the W-method suite generated from the
    hypothesis (guarantees correctness when the SUL has at most
    [states(hypothesis) + extra_states] states). *)

val wp_method : ?extra_states:int -> unit -> ('i, 'o) Oracle.equivalence
(** Like {!w_method} with the smaller Wp suite. *)

val fixed_words : 'i list list -> ('i, 'o) Oracle.equivalence
(** Tests a fixed scenario list (e.g. the protocol's happy paths).
    Deep sequential behaviour — a DTLS handshake needs five correct
    symbols in a row — is practically unreachable by random testing;
    seeding the equivalence oracle with domain scenarios is how
    reference-implementation test suites (QUIC-Tracker) guide
    exploration. Combine with {!w_method} so the conformance suite
    still covers the rest. *)

val exhaustive : max_len:int -> ('i, 'o) Oracle.equivalence
(** Every input word up to [max_len] (exponential; only for tiny
    alphabets/depths). *)

val against : ('i, 'o) Prognosis_automata.Mealy.t -> ('i, 'o) Oracle.equivalence
(** Perfect oracle for a known target machine; used in tests. Compares
    the hypothesis against the target by product construction; no
    membership queries are spent. *)

val combine : ('i, 'o) Oracle.equivalence list -> ('i, 'o) Oracle.equivalence
(** Tries oracles in order, returning the first counterexample. *)

val shrink : ('i, 'o) Oracle.membership -> ('i, 'o) Prognosis_automata.Mealy.t ->
  'i list -> 'i list
(** Greedily removes symbols from a counterexample while it still
    distinguishes SUL and hypothesis; shorter counterexamples cost
    fewer queries during refinement. *)
