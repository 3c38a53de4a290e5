(** Fleet scheduler: domain-parallel learning and identification
    sessions over shared membership caches.

    A fleet is a list of jobs — learn or identify, any mix of
    subjects — executed on an OCaml 5 domain pool. Each session owns
    its own {!Prognosis_exec.Engine} (its own SUL workers), placed in
    front of its own {!Prognosis_learner.Cache.shared} view of the one
    {!Prognosis_learner.Cache.Shared} store every session probing the
    same endpoint configuration shares — so each query crosses exactly
    one cache. Learn sessions take {!Prognosis.Pipeline.learn} over the
    subject's string view ({!Subject.t.factory}, {!Subject.t.eq}) and
    learn what the typed [Subject.learn] learns; identify sessions
    share one resident {!Prognosis_fingerprint.Splitter} tree per model
    kind, compiled (and its entry models packed) once before fan-out.
    Answers served from the shared cache never touch a SUL, so a fleet
    identifying a population of similar endpoints spends a fraction of
    the queries of the same sessions run cold.

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
  hits : int;  (** summed over the endpoint's sessions *)
  misses : int;
  nodes : int;
}

type verdict = {
  at : int;  (** the job's position in the job list *)
  job : job;
  witness : (string, string) Prognosis_sul.Nondet.witness;
      (** what stopped the session: a word its endpoint answered
          inconsistently ({!Prognosis_exec.Engine.guard}) *)
}

type t = {
  sessions : session list;
      (** the sessions that finished, merged in job order, always *)
  verdicts : verdict list;  (** the sessions a verdict stopped, in job order *)
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

val default_config : Prognosis_exec.Engine.config
(** {!Prognosis_exec.Engine.default} with batching on. *)

val run :
  ?domains:int ->
  ?config:Prognosis_exec.Engine.config ->
  ?library:Prognosis_fingerprint.Library.t ->
  jobs:job list ->
  unit ->
  (t, string) result
(** Run the fleet on the calling domain plus [domains - 1] helper
    domains ([domains], default 1, is clamped to the job count and
    forced to 1 while a trace sink is set: the sink is not
    domain-safe). Helpers are spawned on first use and stay resident,
    so a process holds at most the largest [domains - 1] it was asked
    for (gauge [service.helper_domains]); a run that finds them busy
    with a concurrent run runs alone. Each domain takes the next job
    by {!pick}. [config] (default {!default_config}) applies to every
    session's engine.
    [library] is required when any job identifies ([Error] otherwise;
    also on a library whose splitter tree fails to compile). An
    endpoint answering a query inconsistently stops only its own
    session, which lands in [verdicts] instead of [sessions]. Any
    other exception a session raises is a bug: it re-raises here once
    every session has ended, the first in job order winning, and the
    helper that ran it lives on. *)

val pick :
  endpoint:int array -> taken:bool array -> busy:(int -> bool) -> int option
(** The job a domain takes next, where job [i] probes endpoint
    [endpoint.(i)]: the first job, in job order, not [taken] and whose
    endpoint is not [busy] (has no session running), else the first
    job not [taken]. Sessions of one endpoint thus follow each other,
    each finding in the shared cache what the last one asked. At one
    domain nothing is busy, so this is job order. *)

val schema : string
(** ["prognosis.service/1"] *)

val to_json : t -> Prognosis_obs.Jsonx.t
(** The [service] block of a report: per-session counters (list keyed
    by index — sessions deliberately carry an ["endpoint"] field, not
    ["subject"], so {!Prognosis_obs.Report_diff} aligns repeated
    endpoints by position) plus aggregate throughput and shared-cache
    totals, and a ["verdicts"] list (index, op, endpoint, witness word
    and answers) when a verdict stopped a session. *)

val pp : Format.formatter -> t -> unit
