module Metrics = Prognosis_obs.Metrics
module Trace = Prognosis_obs.Trace

type config = { loss : float; duplicate : float; corrupt : float }

let reliable = { loss = 0.0; duplicate = 0.0; corrupt = 0.0 }
let lossy p = { reliable with loss = p }

type t = {
  mutable cfg : config;
  rng : Rng.t;
  seed : int64 option;
  mutable transmitted : int;
  mutable transmitted_bytes : int;
  mutable dropped : int;
  mutable duplicated : int;
  mutable corrupted : int;
}

let m_transmitted = Metrics.counter Metrics.default "net.transmitted"
let m_transmitted_bytes = Metrics.counter Metrics.default "net.transmitted_bytes"
let m_dropped = Metrics.counter Metrics.default "net.dropped"
let m_duplicated = Metrics.counter Metrics.default "net.duplicated"
let m_corrupted = Metrics.counter Metrics.default "net.corrupted"

let create ?(config = reliable) ?seed rng =
  {
    cfg = config;
    rng;
    seed;
    transmitted = 0;
    transmitted_bytes = 0;
    dropped = 0;
    duplicated = 0;
    corrupted = 0;
  }

let config t = t.cfg
let set_config t cfg = t.cfg <- cfg

let corrupt_byte rng payload =
  if String.length payload = 0 then payload
  else begin
    let pos = Rng.int rng (String.length payload) in
    let bit = Rng.int rng 8 in
    let b = Bytes.of_string payload in
    Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor (1 lsl bit)));
    Bytes.to_string b
  end

(* Packet-level fault events: emitted only when the fault fires, so a
   reliable channel adds nothing to the trace. *)
let fault_event t kind payload =
  if Trace.enabled () then
    Trace.event
      ~attrs:
        (("bytes", Prognosis_obs.Jsonx.Int (String.length payload))
        ::
        (match t.seed with
        | Some s -> [ ("seed", Prognosis_obs.Jsonx.Int (Int64.to_int s)) ]
        | None -> []))
      kind

let transmit t payload =
  let n = String.length payload in
  t.transmitted <- t.transmitted + 1;
  t.transmitted_bytes <- t.transmitted_bytes + n;
  Metrics.inc m_transmitted;
  Metrics.inc ~by:n m_transmitted_bytes;
  if t.cfg.loss = 0. && t.cfg.corrupt = 0. && t.cfg.duplicate = 0. then
    (* Fully reliable channel: skip the fault draws. No draw outcome
       can differ from the general path (every probability is zero) and
       the channel rng feeds nothing else, so delivery is identical. *)
    [ payload ]
  else if Rng.bool t.rng t.cfg.loss then begin
    t.dropped <- t.dropped + 1;
    Metrics.inc m_dropped;
    fault_event t "net.loss" payload;
    []
  end
  else begin
    let payload =
      if Rng.bool t.rng t.cfg.corrupt then begin
        t.corrupted <- t.corrupted + 1;
        Metrics.inc m_corrupted;
        fault_event t "net.corrupt" payload;
        corrupt_byte t.rng payload
      end
      else payload
    in
    if Rng.bool t.rng t.cfg.duplicate then begin
      t.duplicated <- t.duplicated + 1;
      Metrics.inc m_duplicated;
      fault_event t "net.duplicate" payload;
      [ payload; payload ]
    end
    else [ payload ]
  end

let transmitted t = t.transmitted
let transmitted_bytes t = t.transmitted_bytes
let dropped t = t.dropped
let duplicated t = t.duplicated
let corrupted t = t.corrupted
