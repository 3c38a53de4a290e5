(** The model library: a directory of canonical [prognosis.model/1]
    files plus a versioned [prognosis.library/1] manifest.

    The library is the knowledge base of the open-world fingerprinting
    service ("Incremental Fingerprinting in an Open World", PAPERS.md):
    every model ever learned of a known implementation, stored in the
    canonical text format so equivalent behaviours collapse onto
    byte-identical entries. {!Splitter} compiles the library into
    adaptive classification trees; {!Identify} walks them against a
    live endpoint.

    On disk a library is

    {v
    DIR/
      library.json      the manifest (schema prognosis.library/1)
      <name>.model      one canonical model per entry
    v}

    All writes go through {!Prognosis_obs.Atomic_file}, so a crash
    mid-extension never leaves a manifest pointing at a truncated
    model. *)

module Persist := Prognosis.Persist

type entry = {
  name : string;  (** unique within the library, e.g. ["quic:quiche-like"] *)
  kind : Persist.kind;
  file : string;  (** model file basename within the library directory *)
  model : (string, string) Prognosis_automata.Mealy.t;
      (** minimized, canonicalized, string-typed — exactly the machine
          the [prognosis.model/1] bytes describe *)
  text : string;  (** the canonical serialization (identity of the entry) *)
}

type t = { dir : string; entries : entry list }

val manifest_file : string
(** ["library.json"]. *)

val entry_of_model :
  name:string ->
  kind:Persist.kind ->
  (string, string) Prognosis_automata.Mealy.t ->
  entry
(** Canonicalize a string-typed model into an entry (no disk I/O;
    [file] is derived from [name] with [':'] mapped to ['-']). *)

val load : dir:string -> (t, string) result
(** Read the manifest and every model it references. Errors name the
    offending file — and, for corrupt model text, the 1-based line
    ({!Prognosis.Persist.parse_text}). *)

val build :
  check:(entry -> (unit, string) result) ->
  dir:string ->
  (t * string list, string) result
(** Scan [dir] for [*.model] files, parse each (kind sniffed from the
    header), drop byte-identical duplicates, and write a fresh
    manifest. Returns the library plus human-readable notes about
    skipped duplicates. Fails — pinpointing file and line — on a
    corrupt model file, and — naming the file — on the first entry
    [check] refuses; no manifest is written then. *)

type add_outcome =
  | Added of t
  | Duplicate of entry
      (** an entry with byte-identical canonical text already exists *)

val add :
  t -> name:string -> kind:Persist.kind ->
  (string, string) Prognosis_automata.Mealy.t ->
  (add_outcome, string) result
(** Persist a new model into the library directory and rewrite the
    manifest (the open-world extension step). The name must be fresh;
    behaviourally equivalent entries are detected by canonical-bytes
    comparison and reported as {!Duplicate} without touching disk. *)

val find : t -> string -> entry option
(** Entry by name. *)

val group_by_kind : t -> (Persist.kind * entry list) list
(** Entries partitioned by model kind, kinds in {!Prognosis.Persist}
    declaration order, entry order preserved. *)

