(** The Oracle Table: the cache of abstract↔concrete trace pairs
    that [Adapter.query] fills as it replays abstract words (paper
    §3.2, property 4). The learner's view of an adapter records
    nothing; synthesis replays its witness words through
    [Adapter.query] and reads them back from here.

    Each entry records one complete query: the abstract input word that
    was replayed, the abstract output word it got back, and — aligned
    per step — the concrete packets the Adapter actually exchanged with
    the Implementation. The synthesis module (paper §4.3) mines these
    entries to recover register behaviours (sequence numbers,
    flow-control offsets, ...) that the abstract model hides. *)

type ('ci, 'co) step = { sent : 'ci list; received : 'co list }

type ('ai, 'ao, 'ci, 'co) entry = {
  abstract_inputs : 'ai list;
  abstract_outputs : 'ao list;
  steps : ('ci, 'co) step list;  (** same length as the abstract words *)
}

val concrete_inputs : ('ai, 'ao, 'ci, 'co) entry -> 'ci list
(** All packets sent across the query, in order. *)

val concrete_outputs : ('ai, 'ao, 'ci, 'co) entry -> 'co list

type ('ai, 'ao, 'ci, 'co) t

val create : unit -> ('ai, 'ao, 'ci, 'co) t

val add :
  ('ai, 'ao, 'ci, 'co) t ->
  abstract_inputs:'ai list ->
  abstract_outputs:'ao list ->
  steps:('ci, 'co) step list ->
  unit
(** Records one query; duplicate abstract input words overwrite the
    previous entry (the latest concrete witness is kept). *)

val find : ('ai, 'ao, 'ci, 'co) t -> 'ai list -> ('ai, 'ao, 'ci, 'co) entry option
val entries : ('ai, 'ao, 'ci, 'co) t -> ('ai, 'ao, 'ci, 'co) entry list
val size : ('ai, 'ao, 'ci, 'co) t -> int
val clear : ('ai, 'ao, 'ci, 'co) t -> unit

val longest : ('ai, 'ao, 'ci, 'co) t -> int
(** Length of the longest recorded abstract input word. *)
