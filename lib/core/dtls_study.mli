(** The MiniDTLS study: the third protocol wired through the identical
    learning stack — the concrete demonstration of the paper's claim
    that "different protocols and protocol implementations can easily
    be swapped without changes to the learning engine"
    (contribution 1). *)

module Alphabet = Prognosis_dtls.Dtls_alphabet

val scenarios : Alphabet.symbol list list
(** Four handshake words: random testing practically never completes
    the five-symbol handshake, so the equivalence oracle tests these
    first (the QUIC-Tracker approach). *)

val protocol :
  ?server_config:Prognosis_dtls.Dtls_server.config ->
  unit ->
  (Alphabet.symbol, Alphabet.output) Protocol.t
(** Subject ["dtls"]; equivalence oracle: {!scenarios}, then W-method
    with one extra state, then 400 seeded random words of length
    1–10. *)
