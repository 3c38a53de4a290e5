(** Metrics registry: counters, gauges and log-scale latency
    histograms, snapshotted to JSON.

    Instrumentation sites obtain a metric once (get-or-create by name)
    and then update it through a bare ref, so the hot-path cost is a
    single write. {!reset} zeroes metrics in place, keeping previously
    obtained handles valid.

    Registration, {!reset} and the snapshot walks are serialized by a
    per-registry mutex, so fleet sessions running on worker domains may
    register metrics concurrently. Updates through the returned refs
    remain unsynchronized single writes: concurrent sessions can lose
    increments to each other, which is acceptable for these advisory
    process-wide totals (the deterministic counters CI gates on are the
    per-run oracle statistics, not this registry). *)

type t
(** A registry. *)

val create : unit -> t

val default : t
(** The process-wide registry all built-in instrumentation reports to. *)

val counter : t -> string -> int ref
val gauge : t -> string -> float ref

val counter_l : t -> string -> Labels.t -> int ref
(** Labelled counter: registered under [Labels.encode name labels]
    ([name{k="v",...}]), so distinct label sets are distinct metrics
    while the hot-path cost stays one memory write. *)

val gauge_l : t -> string -> Labels.t -> float ref

val inc : ?by:int -> int ref -> unit
val set : float ref -> float -> unit

(** {2 Histograms} *)

type histogram

val histogram : t -> string -> histogram

val observe : histogram -> float -> unit
val observe_ns : histogram -> int64 -> unit

val quantile : histogram -> float -> float
(** [quantile h q] for [q] in [0, 1]: upper bound of the bucket holding
    the rank-[q] observation, clamped to the observed maximum; [nan]
    when empty. Buckets are log-scale, 5 per decade, so the estimate
    overshoots by at most a factor of 10^(1/5) ~ 1.58. *)

val mean : histogram -> float

val bucket_index : float -> int
(** Bucket for a value: 0 covers (0, 1]; bucket [i >= 1] covers
    (10^((i-1)/5), 10^(i/5)]. Exposed for tests. *)

val bucket_upper : int -> float
(** Upper bound of a bucket. Exposed for tests. *)

(** {2 Snapshots} *)

val reset : t -> unit
(** Zero every metric in place. *)

val to_json : t -> Jsonx.t
(** [{"counters": {...}, "gauges": {...}, "histograms": {name:
    {count,sum,min,max,mean,p50,p90,p99}}}] with names sorted. *)

val to_json_string : t -> string

val write_file : t -> string -> unit
(** Atomically write {!to_json_string} (plus newline) to a file
    (temp-file + rename, the checkpoint discipline). *)

(** {2 Exporter view}

    A structural snapshot for renderers that need more than JSON — the
    OpenMetrics exporter reads histogram buckets through it. Names are
    registry names, labels still encoded ({!Labels.split} recovers
    them). *)

type hist_view = {
  v_count : int;
  v_sum : float;
  v_buckets : (float * int) list;
      (** (bucket upper bound, per-bucket count), non-empty buckets
          only, ascending *)
}

type view = V_counter of int | V_gauge of float | V_hist of hist_view

val snapshot : t -> (string * view) list
(** Every metric, name-sorted. *)
