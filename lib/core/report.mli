(** Learning reports: the quantities the paper's evaluation tabulates
    for each case study (§6.1, §6.2.2) — model size, membership-query
    counts, equivalence rounds — plus the trace-reduction figures
    derived from the learned model. *)

type t = {
  subject : string;  (** what was learned, e.g. "tcp" or "quic:mvfst-like" *)
  algorithm : string;
  states : int;
  transitions : int;
  membership_queries : int;  (** queries that reached the SUL *)
  membership_symbols : int;
  cache_hits : int;  (** from the query cache, the authoritative source *)
  cache_misses : int;
      (** equals [membership_queries] when learning ran with the cache;
          the driver asserts this *)
  equivalence_rounds : int;
  test_words : int;  (** words spent by equivalence testing *)
  alphabet : int;
  exec : Prognosis_obs.Jsonx.t option;
      (** query-execution engine stats ([prognosis.exec/1]) when
          learning ran through {!Prognosis_exec.Engine} *)
  identification : Prognosis_obs.Jsonx.t option;
      (** fingerprint-identification stats
          ([prognosis.identification/1]) when the run came from
          [prognosis identify] — see [lib/fingerprint] *)
  service : Prognosis_obs.Jsonx.t option;
      (** fleet-scheduler stats ([prognosis.service/1]) when the run
          came from [prognosis serve] — see [lib/service] *)
}

val of_learn_result :
  subject:string ->
  algorithm:string ->
  ?exec:Prognosis_obs.Jsonx.t ->
  ('i, 'o) Prognosis_learner.Learn.result ->
  t

val trace_count : t -> max_len:int -> int
(** Number of input words of length ≤ [max_len] over this alphabet
    (the exhaustive-exploration cost the paper contrasts with). *)

val cache_hit_rate : t -> float
(** hits / (hits + misses); 0 when the cache was unused. *)

val pp : Format.formatter -> t -> unit
val to_row : t -> string list

val header : string list
(** Column names matching {!to_row}. *)

val to_json : ?metrics:Prognosis_obs.Metrics.t -> t -> Prognosis_obs.Jsonx.t
(** Machine-readable report ([schema] field ["prognosis.report/1"]).
    With [?metrics], folds a snapshot of the given registry into a
    ["metrics"] field — the same shape the CLI's [--metrics-out] and
    the bench harness's [BENCH_run.json] use. A report produced by an
    engine-backed run additionally carries an ["exec"] object (schema
    ["prognosis.exec/1"]). *)

val to_json_string : ?metrics:Prognosis_obs.Metrics.t -> t -> string
