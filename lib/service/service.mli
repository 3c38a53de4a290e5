(** Fleet scheduler: domain-parallel learning and identification
    sessions over shared, sharded membership caches.

    A fleet is a list of jobs — learn or identify, any mix of
    subjects — executed on an OCaml 5 domain pool. Each session owns
    its own {!Prognosis_exec.Engine} (its own SUL workers), placed in
    front of its own {!Prognosis_learner.Cache.shared} view of the one
    {!Prognosis_learner.Cache.Sharded} cache every session probing the
    same endpoint configuration shares — so each query crosses exactly
    one cache. Learn sessions take {!Prognosis.Pipeline.learn} with the
    subject's study equivalence oracle ({!Subject.t.eq}), exactly like
    [Subject.learn]; identify sessions share one resident
    {!Prognosis_fingerprint.Splitter} tree per model kind, compiled
    (and its entry models packed) once before fan-out. Answers served
    from the shared cache never touch a SUL, so a fleet identifying a
    population of similar endpoints spends a fraction of the queries
    of the same sessions run cold.

    Determinism: a session's {e results} (learned canonical model,
    identification verdict) depend only on its job — shared-cache
    answers are behaviourally identical to the session's own SUL's —
    so they are byte-identical to a solo run of the same job
    regardless of [domains]. Per-session {e query counters} at
    [domains > 1] depend on which session warmed the cache first;
    counter-gated comparisons must run with [domains = 1], where job
    order makes them deterministic. *)

type op = Learn | Identify

type job = {
  op : op;
  subject : Subject.t;
  seed : int64;
  algorithm : Prognosis_learner.Learn.algorithm;
}

val job :
  ?seed:int64 ->
  ?algorithm:Prognosis_learner.Learn.algorithm ->
  op ->
  Subject.t ->
  job
(** [seed] defaults to [1L], [algorithm] to TTT. *)

val op_name : op -> string
val algo_name : Prognosis_learner.Learn.algorithm -> string

val jobs_schema : string
(** ["prognosis.jobs/1"]: [{"schema": "prognosis.jobs/1", "jobs":
    [{"op": "learn", "subject": "tcp", "seed": 7, "algorithm":
    "ttt"}, {"op": "identify", "subject": "quic:quiche-like"}]}] —
    [seed] (int or int64 string) and [algorithm] are optional. *)

val jobs_of_json : Prognosis_obs.Jsonx.t -> (job list, string) result
val jobs_of_string : string -> (job list, string) result

type outcome =
  | Learned of {
      canonical : string;
          (** the canonical [prognosis.model/1] serialization — the
              byte-identity currency of the determinism tests *)
      states : int;
      transitions : int;
      rounds : int;
    }
  | Identified of Prognosis_fingerprint.Identify.result

type session = {
  index : int;  (** position in the job list *)
  s_op : op;
  endpoint : string;  (** the subject name *)
  s_seed : int64;
  s_algorithm : Prognosis_learner.Learn.algorithm;
  outcome : outcome;
  membership_queries : int;
      (** words that reached this session's SUL workers, i.e. missed
          the shared cache *)
  membership_symbols : int;
  test_words : int;
  cache_hits : int;  (** this session's view of the shared cache *)
  cache_misses : int;
  elapsed_s : float;
}

type shared_cache = {
  cache_endpoint : string;
  shard_count : int;
  hits : int;  (** summed over the endpoint's sessions *)
  misses : int;
  nodes : int;
}

type t = {
  sessions : session list;  (** merged in job order, always *)
  shared : shared_cache list;
      (** one per distinct endpoint, in first-appearance order *)
  domains : int;  (** domains actually used *)
  elapsed_s : float;
  sessions_per_sec : float;
      (** wall-clock throughput — scheduling- and hardware-dependent,
          reported in the {e advisory} regression gate only *)
}

val total_membership_queries : t -> int
val shared_hits : t -> int

exception Service_error of string

val default_config : Prognosis_exec.Engine.config
(** {!Prognosis_exec.Engine.default} with batching on. *)

val run :
  ?domains:int ->
  ?shards:int ->
  ?config:Prognosis_exec.Engine.config ->
  ?library:Prognosis_fingerprint.Library.t ->
  jobs:job list ->
  unit ->
  (t, string) result
(** Run the fleet. [domains] (default 1) is clamped to the job count
    and forced to 1 while a trace sink is set (the sink is not
    domain-safe); [shards] (default 8) sizes each shared cache;
    [config] (default {!default_config}) applies to every session's
    engine. [library] is required when any job identifies ([Error]
    otherwise; also on a library whose splitter tree fails to
    compile). A session raising (nondeterministic SUL, conflicting
    cache insert) re-raises here after every domain has joined —
    the first failure in job order wins. *)

val schema : string
(** ["prognosis.service/1"] *)

val to_json : t -> Prognosis_obs.Jsonx.t
(** The [service] block of a report: per-session counters (list keyed
    by index — sessions deliberately carry an ["endpoint"] field, not
    ["subject"], so {!Prognosis_obs.Report_diff} aligns repeated
    endpoints by position) plus aggregate throughput and shared-cache
    totals. *)

val pp : Format.formatter -> t -> unit
