(** Open-world endpoint identification.

    Walks a {!Splitter} classification tree against a live endpoint
    through a membership oracle (hand it
    {!Prognosis_exec.Engine.membership} to get batching, caching and
    replica voting for free), then {e confirms} the candidate with the
    entry model's state cover crossed with its characterizing set —
    the per-state fingerprint the W-method builds on — so a machine
    that merely agrees along one tree path cannot masquerade as a
    known implementation.

    Both failure directions are open-world verdicts: an output word no
    branch expects, or a confirmation mismatch, yields {!Novel} with
    replayable evidence. The caller then runs full learning and
    extends the library ({!Library.add} + {!Splitter.insert}) — the
    fallback loop of "Incremental Fingerprinting in an Open World". *)

type evidence = {
  word : string list;  (** input word on which the subject diverged *)
  actual : string list;  (** the subject's output word *)
  expected : string list list;
      (** the output word(s) known entries would produce: every branch
          key at a walk divergence, the candidate's single prediction
          at a confirmation divergence *)
  stage : string;  (** ["walk"] or ["confirm"] *)
}

type outcome =
  | Known of Library.entry
  | Novel of evidence
      (** no library entry matches; the evidence word replays the
          divergence *)

type result = {
  outcome : outcome;
  words_asked : int;  (** membership words crossing the oracle *)
  symbols_asked : int;
  walk_words : int;  (** separating words asked along the tree path *)
  confirm_words : int;  (** confirmation-suite words *)
}

val run :
  mq:(string, string) Prognosis_learner.Oracle.membership ->
  Splitter.tree ->
  result
(** Identify the endpoint behind [mq]. Emits [identify.walk] /
    [identify.confirm] spans and [identify.*] counters on the default
    metrics registry. Uses [mq.ask_batch] for the confirmation suite
    when the oracle provides it. *)

val to_json : result -> Prognosis_obs.Jsonx.t
(** Schema-versioned ["prognosis.identification/1"] object — the
    ["identification"] block of [prognosis.report/1]
    ([Report.t.identification]). *)

val pp : Format.formatter -> result -> unit
