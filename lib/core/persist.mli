(** Persisting learned models.

    Learning a production-scale implementation is the expensive step
    (the paper's QUIC runs took tens of thousands of queries); analyses
    are cheap. Saving learned models lets `compare`, `check`, `replay`
    and `difftest` style workflows reuse them across invocations.

    Models are stored in one {b canonical text format},
    [prognosis.model/1] ({!save_text}/{!load_text}): line-oriented plain
    text with a sorted output table and BFS-renumbered states, designed
    to be committed, diffed and reviewed, and readable on any OCaml
    version or architecture. Two equivalent learned machines serialize
    byte-identically — the property the `prognosis ci` golden-model
    regression gate relies on. *)

type kind = Tcp_model | Quic_model | Dtls_model | Tcp_client_model

val kind_to_string : kind -> string

val kind_of_string : string -> kind option
(** Inverse of {!kind_to_string}; [None] for unknown tags. *)

val all_kinds : kind list

(** Structured load failures — every case a caller might want to
    branch on (a missing golden is refreshable, a kind mismatch is a
    usage error, a format-version mismatch means re-learn). *)
type load_error =
  | Missing_file of { path : string; detail : string }
  | Foreign_magic of { path : string; found : string }
  | Kind_mismatch of { path : string; found : string; expected : string }
  | Version_mismatch of { path : string; found : string; running : string }
      (** The file's [prognosis.model/N] magic names a format version
          this binary does not read. *)
  | Corrupt of { path : string; detail : string }

val load_error_to_string : load_error -> string

(** {2 The canonical text format}

    Text models are string-typed: symbols are rendered once, at save
    time, through the study alphabet's printers, and a loaded text
    model is a [(string, string) Mealy.t]. That is exactly what the
    regression gate needs — structural comparison and replayable
    distinguishing words over the printed alphabet — while staying
    independent of OCaml's value representation. *)

val to_string_model :
  input_to_string:('i -> string) ->
  output_to_string:('o -> string) ->
  ('i, 'o) Prognosis_automata.Mealy.t ->
  (string, string) Prognosis_automata.Mealy.t
(** Render every symbol; structure is untouched. *)

val text_of_model :
  kind:kind ->
  input_to_string:('i -> string) ->
  output_to_string:('o -> string) ->
  ('i, 'o) Prognosis_automata.Mealy.t ->
  string
(** The canonical serialization: the model is rendered to strings,
    minimized, BFS-renumbered ({!Prognosis_automata.Mealy.canonicalize}),
    its distinct outputs interned into a lexicographically sorted
    table, and emitted as [prognosis.model/1] text (versioned magic,
    [kind]/[states]/[initial]/[inputs]/[outputs]/[transitions]
    sections, one symbol per line, transitions in row-major
    state-then-input order, closing [end] marker). Equivalent machines
    over the same printed alphabet produce byte-identical text.
    @raise Invalid_argument if a printed symbol contains a line break. *)

val save_text :
  path:string ->
  kind ->
  input_to_string:('i -> string) ->
  output_to_string:('o -> string) ->
  ('i, 'o) Prognosis_automata.Mealy.t ->
  unit
(** {!text_of_model} written atomically (tmp + rename). *)

val parse_text :
  path:string ->
  kind ->
  string ->
  ((string, string) Prognosis_automata.Mealy.t, load_error) result
(** Parse serialized text ([path] only labels errors). Round-trip is
    exact: [text_of_model] of a parsed model reproduces the input
    bytes. [Corrupt] details are prefixed with the 1-based line number
    of the offending line (["line 17: bad transition line ..."]), so
    tooling over directories of committed models — the fingerprint
    library builder — can pinpoint damage. *)

val load_text :
  path:string ->
  kind ->
  ((string, string) Prognosis_automata.Mealy.t, load_error) result
