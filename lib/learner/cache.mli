(** Prefix-tree membership-query cache.

    Learner algorithms ask many overlapping queries; because the SUL is
    reset before each query, the answer to any prefix of a cached word
    is also known. The cache stores full observed words in a trie and
    answers any query that is a prefix of a previously executed one
    without touching the SUL.

    Symbols become ids once: each store owns an input and an output
    {!Oracle.Coder} giving every symbol a dense int id (a {!Shared}
    store one pair for all its views). The trie holds coded
    words and output ids in path-compressed edges, so walks, inserts
    and the {!Conflict} check scan int arrays; the list API codes the
    word, then walks. A node's children sit in an array indexed by the
    first input id of their edge; a lookup that misses allocates
    nothing. Lookups never mutate the trie, and an insert changes it
    only by single pointer writes of fully built values: a new child
    fills its empty slot or goes into a grown copy of the child array
    that replaces the old one; a split builds its head and tail, then
    overwrites the split edge's slot. So {!Shared}'s lock-free readers
    see each change before or after, never half made.

    A cache value is a {e view} over one of two stores: a private trie
    ({!create}) or a {!Shared} trie shared across domains
    ({!shared}). Every operation below works on either; the view keeps
    its own hit/miss tallies. *)

exception Conflict of int
(** Raised by {!insert} and {!wrap} when the same word is answered
    with different outputs — the system under learning answered
    nondeterministically (the paper's §5 check). The payload is the
    position of the first output that differs from the cached one. *)

type ('i, 'o) t

val create : unit -> ('i, 'o) t
(** A view over a fresh private trie. *)

val insert : ('i, 'o) t -> 'i list -> 'o list -> unit
(** Records an executed query and its answer.
    @raise Conflict on conflicting outputs for an already-cached
    prefix. *)

val lookup : ('i, 'o) t -> 'i list -> 'o list option

val inputs : ('i, 'o) t -> 'i Oracle.Coder.t
val outputs : ('i, 'o) t -> 'o Oracle.Coder.t
(** The store's coders: a coded word's input ids and its answer's
    output ids. *)

val find_coded : ('i, 'o) t -> int array -> int array option
(** The output ids cached for a coded word, counted as one {!hits} or
    one {!misses} on this view: the probe a caching oracle makes for
    each word it is asked. *)

val insert_coded : ('i, 'o) t -> int array -> int array -> unit
(** {!insert} of a coded word and its coded answer. *)

val size : ('i, 'o) t -> int
(** Number of logical trie nodes — one per distinct cached non-empty
    prefix, plus the root (an upper bound on distinct cached symbols).
    Unchanged by path compression. *)

val compacted_nodes : ('i, 'o) t -> int
(** Number of physical nodes after path compression, root included
    (exported as the [cache.trie.nodes] gauge). Always ≤ {!size}. *)

val hits : ('i, 'o) t -> int
(** {!find_coded} hits through this view. *)

val misses : ('i, 'o) t -> int
(** {!find_coded} misses through this view: the words a caching
    oracle sent on to the SUL. *)

val dump : ('i, 'o) t -> ('i list * 'o list) list
(** The maximal cached words with their outputs — enough to rebuild the
    whole trie with {!restore}, since every cached word is a prefix of
    a maximal one. Order is canonical: depth-first, siblings sorted by
    symbol (polymorphic compare), independent of insertion history —
    so [dump]→[restore]→[dump] round-trips byte-identically, including
    for dumps produced by the pre-compaction implementation, whose
    entry type is unchanged but whose hash-table order was arbitrary.
    A view over a {!Shared} store dumps it under the store's mutex, so
    inserts may be in flight on other domains. *)

val restore : ('i, 'o) t -> ('i list * 'o list) list -> unit
(** Re-inserts a {!dump}. Restored entries do not count as hits or
    misses; conflicting outputs raise like {!insert}. *)

val wrap : ('i, 'o) t -> ('i, 'o) Oracle.membership -> ('i, 'o) Oracle.membership
(** Caching view of a membership oracle, coded by this view's store:
    only cache misses reach the underlying oracle, through its [ask]
    (and are counted in its statistics, so they equal {!misses}). Each
    miss is replayed in full and inserted; a fresh answer that
    contradicts a cached prefix raises {!Conflict}. The wrapped oracle
    does not batch: batching through a cache is the engine's job
    ({!Prognosis_exec.Engine.membership}). *)

(** Concurrent store: one trie shared by the fleet sessions that
    probe one endpoint from several domains ({!Prognosis_service}).
    Sessions reach it through their own {!shared} views.

    The store's mutex is taken only on insert; lookups run lock-free
    and optimistic — a generation counter detects an overlapping
    insert, in which case the answer is discarded and the probe
    retried under the mutex. Coders publish new ids as an immutable
    snapshot with one atomic swap, so a lock-free reader never sees a
    half-added symbol. A store's size is {!size}, reported per endpoint
    as [nodes] in a fleet's {!Prognosis_service.Service.shared_cache}:
    a process-wide gauge would be written by every endpoint's store. *)
module Shared : sig
  type ('i, 'o) t

  val create : unit -> ('i, 'o) t
  val size : ('i, 'o) t -> int
end

val shared : ('i, 'o) Shared.t -> ('i, 'o) t
(** A fresh view over a shared store, with its own {!hits} and
    {!misses}. One view per session: a view's tallies are not
    synchronized, the store underneath is. *)
