(** Adaptive classification trees: the compiled form of a model
    {!Library}.

    Each internal node holds a {e separating word} — a shortest input
    word on which at least two library entries disagree, found by
    product-automaton BFS ({!Prognosis_analysis.Model_diff}) — and one
    branch per observed output word. Walking the tree against a live
    endpoint asks only the words along one root-to-leaf path, so an
    identification costs a handful of queries where full learning
    costs thousands (the open-world fingerprinting idea of
    "Incremental Fingerprinting in an Open World").

    Construction is deterministic: candidate splits come from
    {!Prognosis_analysis.Model_diff.shortest_difference} (FIFO
    product BFS, alphabet-order tie-break) applied to the first two
    entries of each unresolved group, and branches are sorted by
    output word. The same library therefore always compiles to the
    same tree. *)

module Persist := Prognosis.Persist

type tree =
  | Leaf of Library.entry option
      (** [Some e]: the walk has isolated entry [e] (subject to the
          confirmation pass in {!Identify}); [None]: no library entry
          behaves this way. *)
  | Node of { word : string list; branches : (string list * tree) list }
      (** Ask [word]; follow the branch keyed by the observed output
          word. No matching branch means the endpoint is novel.
          Branches are sorted by output word. *)

val build : Library.entry list -> (tree, string) result
(** Compile one same-kind group of entries. All entries must share
    one input alphabet (same symbols, same order) and be pairwise
    inequivalent — the library's canonical-bytes dedupe guarantees
    the latter; both are checked and reported as [Error]. *)

type insert_outcome =
  | Inserted of tree
  | Duplicate of Library.entry
      (** the new model is behaviourally equivalent to an existing
          entry — nothing to insert *)

val insert : tree -> Library.entry -> (insert_outcome, string) result
(** Incremental extension after a {!Identify} [Novel] verdict: walk
    the new model down the tree and either hang it off an existing
    node as a fresh output branch, or split the leaf it collides with
    using a new shortest separating word. Cheaper than {!build} — it
    diffs against at most one entry — and never moves existing
    entries, so committed identifications stay valid. The tree may be
    one level deeper than a from-scratch rebuild. *)

val of_library :
  Library.t -> ((Persist.kind * tree) list, string) result
(** One tree per model kind present in the library, kinds in
    {!Prognosis.Persist} declaration order. *)

type stats = {
  depth : int;  (** longest root-to-leaf path, in internal nodes *)
  internal : int;  (** number of separating words in the tree *)
  leaves : int;  (** populated leaves, i.e. classifiable entries *)
  max_word_len : int;  (** longest separating word, in symbols *)
}

val stats : tree -> stats

val entries : tree -> Library.entry list
(** Populated leaves in branch-sorted depth-first order — the
    deterministic entry enumeration {!rebuild_if_skewed} feeds back
    into {!build}. *)

val rebuild_if_skewed : tree -> (tree * bool, string) result
(** Rebalance a tree degraded by many incremental {!insert}s: when
    the depth exceeds [2 × log₂ leaves], rebuild from scratch over
    {!entries} (returning [(rebuilt, true)]); otherwise return the
    tree unchanged ([(tree, false)]). Either way the [splitter.depth]
    gauge in {!Prognosis_obs.Metrics.default} is set to the resulting
    depth. Errors propagate from {!build} (they indicate a corrupted
    tree — duplicate or alphabet-mismatched leaves). *)

val pp : Format.formatter -> tree -> unit
