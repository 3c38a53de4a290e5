(** Deterministic, complete Mealy machines.

    States are integers [0 .. size-1]; the input alphabet is an explicit
    array of symbols. All machines handled by Prognosis are total: every
    state has a transition for every input symbol.

    Machines carry a lazily-built {e packed} form (see {!Packed}): flat
    int transition/output tables with O(1) array-indexed stepping. The
    word-running entry points ({!run}, {!run_from}, {!state_after}),
    product-BFS comparisons ({!equivalent}, {!distinguishing_word}) and
    {!characterizing_set} all execute on the packed form; it is memoized
    per machine, so the compilation cost is paid once. *)

type ('i, 'o) packed
(** The compiled form of a machine; see {!Packed}. *)

type ('i, 'o) t = private {
  size : int;  (** number of states *)
  initial : int;  (** initial state, in [0, size) *)
  inputs : 'i array;  (** the input alphabet *)
  delta : int array array;  (** [delta.(s).(i)] = successor state *)
  lambda : 'o array array;  (** [lambda.(s).(i)] = output symbol *)
  mutable packed_ : ('i, 'o) packed option;
      (** memoized packed form; managed by {!Packed.pack} *)
}

val make :
  size:int ->
  initial:int ->
  inputs:'i array ->
  delta:int array array ->
  lambda:'o array array ->
  ('i, 'o) t
(** Builds a machine, checking that [delta]/[lambda] are [size]×[inputs]
    matrices, all successors lie in [0, size) and no input symbol
    repeats (structurally).
    @raise Invalid_argument on a malformed machine. *)

val repeated_input : 'i array -> (int * int) option
(** [Some (i, j)] when input [i] is structurally equal to the earlier
    input [j] (the first such [i]); [None] when every symbol is
    distinct, as {!make} requires. *)

val of_fun :
  size:int ->
  initial:int ->
  inputs:'i array ->
  step:(int -> 'i -> int * 'o) ->
  ('i, 'o) t
(** Tabulates [step] over all states and inputs. *)

val size : ('i, 'o) t -> int
val initial : ('i, 'o) t -> int
val inputs : ('i, 'o) t -> 'i array
val alphabet_size : ('i, 'o) t -> int

val transitions : ('i, 'o) t -> int
(** Total number of transitions, i.e. [size * alphabet_size]. *)

val input_index : ('i, 'o) t -> 'i -> int
(** Position of a symbol in the input alphabet: found by physical
    equality when the symbol is one of the alphabet's own values,
    compared structurally only when that probe misses.
    @raise Not_found if the symbol is not in the alphabet. *)

val step_idx : ('i, 'o) t -> int -> int -> int * 'o
(** [step_idx m s i] follows the transition for the [i]-th alphabet
    symbol from state [s]. *)

val step : ('i, 'o) t -> int -> 'i -> int * 'o

val run : ('i, 'o) t -> 'i list -> 'o list
(** Output word produced from the initial state. Executes on the
    memoized packed form ({!Packed}).
    @raise Not_found if a symbol is not in the alphabet. *)

val run_from : ('i, 'o) t -> int -> 'i list -> 'o list
val state_after : ('i, 'o) t -> 'i list -> int

val run_reference : ('i, 'o) t -> 'i list -> 'o list
(** Functional reference stepping over the unpacked matrices (linear
    alphabet scan per symbol, no interning). Semantically identical to
    {!run}; kept as the differential baseline for the packed-vs-
    functional property test and the A9 bench ablation. *)

val run_reference_from : ('i, 'o) t -> int -> 'i list -> 'o list

(** Packed (compiled) machines: transitions and outputs frozen into
    flat int arrays indexed by [(state * alphabet_size) + input_index],
    with outputs interned into a dense table. Stepping is two array
    loads — no per-step allocation or polymorphic comparison. Build
    cost is O(size × alphabet); {!Packed.pack} memoizes the result on
    the machine record.

    Packing and the memoizing field are not domain-safe: pack on one
    domain before sharing a machine with parallel consumers. A packed
    value itself is immutable and safe to read concurrently. *)
module Packed : sig
  type ('i, 'o) machine = ('i, 'o) t
  type nonrec ('i, 'o) t = ('i, 'o) packed

  val pack : ('i, 'o) machine -> ('i, 'o) t
  (** Compile (memoized — subsequent calls are one field read). *)

  val run_ids : ('i, 'o) t -> int -> int array -> int array
  (** [run_ids p s w] steps alphabet positions [w] from state [s] and
      returns the output ids (indices into {!outputs}): two array loads
      a step, no symbol in sight. *)

  val outputs : ('i, 'o) t -> 'o array
  (** The interned output table: output id -> symbol. *)
end

val pack : ('i, 'o) t -> ('i, 'o) packed
(** Alias for {!Packed.pack}. *)

val reachable : ('i, 'o) t -> bool array
(** [reachable m] marks states reachable from the initial state. *)

val trim : ('i, 'o) t -> ('i, 'o) t
(** Restriction to reachable states (initial state preserved). *)

val minimize : ('i, 'o) t -> ('i, 'o) t
(** Canonical minimal machine (Moore-style partition refinement),
    restricted to reachable states. *)

val canonicalize : ('i, 'o) t -> ('i, 'o) t
(** BFS state renumbering: states are renumbered in breadth-first
    discovery order from the initial state (inputs explored in alphabet
    order), unreachable states dropped, so the initial state is 0.
    Isomorphic machines over the same alphabet canonicalize to
    structurally equal machines; compose with {!minimize} to map every
    machine of an equivalence class to one literal representative
    ([canonicalize (minimize m)]) — the normal form behind the
    byte-identical [prognosis.model/1] serialization. *)

val equivalent : ('i, 'o) t -> ('i, 'o) t -> 'i list option
(** [equivalent a b] is [None] when the machines have the same
    input/output behaviour, or [Some w] with [w] a shortest-by-BFS input
    word on which their outputs differ. Both machines must share the
    same input alphabet (compared by structural equality, order
    included). Runs as a product BFS over the packed transition tables;
    the BFS order (FIFO, inputs in alphabet order) is fixed, so the
    witness word is deterministic.
    @raise Invalid_argument if the alphabets differ. *)

val difference_ids : ('i, 'o) t -> ('i, 'o) t -> int array option
(** The product BFS behind {!equivalent} with the machines aligned by
    alphabet position: a shortest word, as alphabet positions, on which
    their outputs differ, or [None]. Only the alphabet {e sizes} must
    match; outputs are compared structurally. The witness is the one
    {!equivalent} returns.
    @raise Invalid_argument if the alphabet sizes differ. *)

val decode : 'i array -> int array -> 'i list
(** [decode inputs w] is the word of the symbols at alphabet positions
    [w]. *)

val access_ids : ('i, 'o) t -> int array array
(** {!access_words} as alphabet positions. *)

val access_words : ('i, 'o) t -> 'i list array
(** BFS access word for each state; unreachable states map to the empty
    word (use {!reachable} to tell them apart from the initial state). *)

val characterizing_set : ('i, 'o) t -> 'i list list
(** A set of input words separating every pair of inequivalent states
    (used by W-method test generation). Never empty for machines with
    more than one state; contains the empty word only as a fallback for
    one-state machines. *)

val characterizing_ids : ('i, 'o) t -> int array list
(** {!characterizing_set} as alphabet positions, in the same order. *)

val distinguishing_word : ('i, 'o) t -> int -> int -> 'i list option
(** Shortest input word on which two states of the same machine produce
    different outputs, if any. *)

val count_words : alphabet:int -> max_len:int -> int
(** Number of nonempty input words of length ≤ [max_len] over an
    alphabet of size [alphabet]: Σ_{k=1..max_len} alphabet^k. *)

val to_dot :
  ?name:string ->
  input_pp:(Format.formatter -> 'i -> unit) ->
  output_pp:(Format.formatter -> 'o -> unit) ->
  ('i, 'o) t ->
  string
(** Graphviz rendering. Transitions with identical endpoints are merged
    into a single multi-line edge label. *)

val map_outputs : ('o -> 'p) -> ('i, 'o) t -> ('i, 'p) t
