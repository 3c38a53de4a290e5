(** The MiniDTLS server: a cookie-validating datagram-TLS-style
    handshake endpoint serving as a third System Under Learning.

    Lifecycle: ClientHello → (HelloVerifyRequest with a stateless
    cookie, when enabled) → ClientHello+cookie → ServerHello +
    Certificate + ServerHelloDone → ClientKeyExchange →
    ChangeCipherSpec → Finished (verified) → CCS + Finished →
    established echo service → close_notify alerts. Out-of-order
    messages are dropped or answered with a fatal alert, giving the
    learner observable structure. *)

type config = {
  require_cookie : bool;
      (** demand the HelloVerifyRequest round-trip (DTLS's DoS
          protection, the analogue of QUIC's Retry) *)
  strict_ccs : bool;
      (** answer a ChangeCipherSpec arriving before the key exchange
          with a fatal alert instead of silently dropping it *)
}

val default_config : config

type t

val create : ?config:config -> Prognosis_sul.Rng.t -> t
val reset : t -> unit
val phase_name : t -> string

val parse_client_hello : string -> (string * string) option
(** A ClientHello body, ["CR:<random>;COOKIE:<cookie>"] with exactly
    one [';']: the random and the cookie. *)

val handle_datagram : t -> string -> string list
(** One record in, response records out (wire level). *)
