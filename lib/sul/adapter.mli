(** The protocol Adapter (paper §3.2).

    An Adapter owns the translation pair (α, γ): it concretizes
    abstract learner symbols into real packets via a reference
    implementation, transmits them to the target Implementation and
    abstracts the responses. {!query} records the exchange in the
    Oracle Table; the learner's view {!to_sul} records nothing. The
    five instrumentation properties of §3.2 are enforced by the
    protocol-specific constructors (see [Prognosis_tcp.Tcp_adapter] and
    [Prognosis_quic.Quic_adapter]); this module captures what they
    share. *)

type ('ai, 'ao, 'ci, 'co) t = {
  reset : unit -> unit;
      (** property (3): return reference and target to their initial state *)
  step : 'ai -> 'ao * 'ci list * 'co list;
      (** one abstract step; also reports the concrete packets sent to and
          received from the Implementation during the step *)
  table : ('ai, 'ao, 'ci, 'co) Oracle_table.t;
      (** property (4): the historic Oracle Table, one entry per
          {!query}; synthesis replays its witness words through
          {!query} and reads their concrete packets back from here *)
  description : string;
}

val create :
  ?description:string ->
  reset:(unit -> unit) ->
  step:('ai -> 'ao * 'ci list * 'co list) ->
  unit ->
  ('ai, 'ao, 'ci, 'co) t

val query : ('ai, 'ao, 'ci, 'co) t -> 'ai list -> 'ao list
(** Resets, runs a whole abstract input word and records the resulting
    abstract/concrete trace pair in the Oracle Table (the empty word
    included, as an entry with no steps). The only writer of the
    table. *)

val to_sul : ('ai, 'ao, 'ci, 'co) t -> ('ai, 'ao) Sul.t
(** View for the learner: [reset] is the adapter's, [step] keeps the
    abstract output and drops the concrete packets. It retains nothing,
    so the Oracle Table stays as {!query} left it. *)
