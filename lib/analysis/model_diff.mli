(** Comparing learned models of different implementations of the same
    protocol (paper §5, "Learned Model Analysis", and §6.2.3/§6.2.5).

    Model equivalence is decided by product construction; when models
    differ, the shortest distinguishing input words are concrete,
    replayable evidence — the paper used exactly such witnesses to
    explain Issues 1 and 3 to developers. Equivalence is
    [Prognosis_automata.Mealy.equivalent a b = None]. *)

type ('i, 'o) witness = {
  word : 'i list;
  outputs_a : 'o list;
  outputs_b : 'o list;
}

val shortest_difference :
  ('i, 'o) Prognosis_automata.Mealy.t ->
  ('i, 'o) Prognosis_automata.Mealy.t ->
  ('i, 'o) witness option
(** A {e shortest} input word on which the models disagree, with both
    output words, found by breadth-first search over the product
    automaton ({!Prognosis_automata.Mealy.difference_ids}).
    Deterministic: product states are dequeued in FIFO order and
    inputs scanned in alphabet order, so equal-length
    candidates tie-break identically on every run — the property that
    keeps fingerprint classification trees minimal and byte-stable.
    Machines are aligned positionally; only the alphabet {e sizes}
    must match.
    @raise Invalid_argument if the alphabet sizes differ. *)

val iter_product :
  ('i, 'o) Prognosis_automata.Mealy.t ->
  ('i, 'o) Prognosis_automata.Mealy.t ->
  (path:'i list -> int * int -> int -> int * int -> 'o -> 'o -> bool) ->
  unit
(** [iter_product a b edge] walks every edge of the product reachable
    from the pair of initial states, breadth first (FIFO, inputs in
    alphabet order): [edge ~path (sa, sb) i (sa', sb') oa ob] for the
    [i]-th input from [(sa, sb)], where [path] is the reversed BFS
    word reaching [(sa, sb)]. The walk stops after an edge for which
    [edge] returns [false]. {!differences} and
    {!Visualize.diff_dot} are this walk.
    @raise Invalid_argument if the alphabet sizes differ. *)

val differences :
  max:int ->
  ('i, 'o) Prognosis_automata.Mealy.t ->
  ('i, 'o) Prognosis_automata.Mealy.t ->
  ('i, 'o) witness list
(** Up to [max] distinguishing words discovered by breadth-first
    product exploration: one per disagreeing (state-pair, input) edge,
    shortest first — a structural sample of *where* the behaviours
    diverge, not just that they do. *)

type ('i, 'o) summary = {
  states_a : int;
  states_b : int;
  transitions_a : int;
  transitions_b : int;
  equivalent_ : bool;
  witnesses : ('i, 'o) witness list;
}

val summarize :
  ?max_witnesses:int ->
  ('i, 'o) Prognosis_automata.Mealy.t ->
  ('i, 'o) Prognosis_automata.Mealy.t ->
  ('i, 'o) summary

val pp_summary :
  input_pp:(Format.formatter -> 'i -> unit) ->
  output_pp:(Format.formatter -> 'o -> unit) ->
  Format.formatter ->
  ('i, 'o) summary ->
  unit
