(** Prefix-tree membership-query cache.

    Learner algorithms ask many overlapping queries; because the SUL is
    reset before each query, the answer to any prefix of a cached word
    is also known. The cache stores full observed words in a trie and
    answers any query that is a prefix of a previously executed one
    without touching the SUL.

    Internally the trie is compacted: input and output symbols are
    interned into dense int ids and chains of single-child nodes are
    collapsed into path-compressed edges, so lookups scan int arrays
    instead of probing a hashtable per symbol. Interning a symbol
    first scans the (at most 16) already-interned symbols for a
    physically equal one — symbols normally come from one alphabet
    array — and hashes it only when that fails. {!lookup} never
    mutates the structure, so {!Sharded}'s lock-free readers can probe
    a trie while one writer inserts into it.

    A cache value is a {e view} over one of two stores: a private trie
    ({!create}) or a {!Sharded} cache shared across domains
    ({!shared}). Every operation below works on either; the view keeps
    its own hit/miss tallies. *)

exception Conflict
(** Raised by {!insert} and {!wrap} when the same word is answered
    with different outputs — the system under learning answered
    nondeterministically (the paper's §5 check). *)

type ('i, 'o) t

val create : unit -> ('i, 'o) t
(** A view over a fresh private trie. *)

val insert : ('i, 'o) t -> 'i list -> 'o list -> unit
(** Records an executed query and its answer.
    @raise Conflict on conflicting outputs for an already-cached
    prefix. *)

val lookup : ('i, 'o) t -> 'i list -> 'o list option

val find : ('i, 'o) t -> 'i list -> 'o list option
(** {!lookup} counted as one {!hits} or one {!misses} on this view:
    the probe a caching oracle makes for each word it is asked. *)

val size : ('i, 'o) t -> int
(** Number of logical trie nodes — one per distinct cached non-empty
    prefix, plus the root (an upper bound on distinct cached symbols).
    Unchanged by path compression. *)

val compacted_nodes : ('i, 'o) t -> int
(** Number of physical nodes after path compression, root included
    (exported as the [cache.trie.nodes] gauge). Always ≤ {!size}. *)

val hits : ('i, 'o) t -> int
(** {!find} hits through this view. *)

val misses : ('i, 'o) t -> int
(** {!find} misses through this view: the words a caching oracle sent
    on to the SUL. *)

val dump : ('i, 'o) t -> ('i list * 'o list) list
(** The maximal cached words with their outputs — enough to rebuild the
    whole trie with {!restore}, since every cached word is a prefix of
    a maximal one. Order is canonical: depth-first, siblings sorted by
    symbol (polymorphic compare), independent of insertion history —
    so [dump]→[restore]→[dump] round-trips byte-identically, including
    for dumps produced by the pre-compaction implementation, whose
    entry type is unchanged but whose hash-table order was arbitrary. *)

val restore : ('i, 'o) t -> ('i list * 'o list) list -> unit
(** Re-inserts a {!dump}. Restored entries do not count as hits or
    misses; conflicting outputs raise like {!insert}. *)

val wrap : ('i, 'o) t -> ('i, 'o) Oracle.membership -> ('i, 'o) Oracle.membership
(** Caching view of a membership oracle: only cache misses reach the
    underlying oracle (and are counted in its statistics, so they equal
    {!misses}). Each miss is replayed in full and inserted; a fresh
    answer that contradicts a cached prefix raises {!Conflict}. The
    wrapped oracle has no [ask_batch]: batching through a cache is the
    engine's job ({!Prognosis_exec.Engine.membership}). *)

(** Concurrent sharded store over K independent tries, for fleet
    sessions that populate one shared membership cache from several
    domains ({!Prognosis_service}). Sessions reach it through their
    own {!shared} views.

    Words are partitioned by a hash of the first symbol's value (the
    stable stand-in for its per-shard interned id, which depends on
    insertion history), so every prefix of a word lands in the same
    shard. Each shard's mutex is taken only on insert; lookups run
    lock-free and optimistic — a shard-level generation counter
    detects an overlapping insert, in which case the answer is
    discarded and the probe retried under the mutex. The per-shard
    [cache.shard.nodes{shard=..}] labelled gauges land in
    {!Prognosis_obs.Metrics.default}. *)
module Sharded : sig
  type ('i, 'o) t

  val create : ?shards:int -> unit -> ('i, 'o) t
  (** [shards] defaults to 8. @raise Invalid_argument when < 1. *)

  val shards : ('i, 'o) t -> int

  val insert : ('i, 'o) t -> 'i list -> 'o list -> unit
  (** Like {!Cache.insert}, serialized per shard. *)

  val lookup : ('i, 'o) t -> 'i list -> 'o list option
  val size : ('i, 'o) t -> int

  val dump : ('i, 'o) t -> ('i list * 'o list) list
  (** Canonical merged dump, byte-identical to the unsharded
      {!Cache.dump} of one trie holding the same words: per-shard
      canonical dumps merged back into global lexicographic symbol
      order. Safe only while no insert is in flight. *)
end

val shared : ('i, 'o) Sharded.t -> ('i, 'o) t
(** A fresh view over a shared store, with its own {!hits} and
    {!misses}. One view per session: a view's tallies are not
    synchronized, the store underneath is. *)
