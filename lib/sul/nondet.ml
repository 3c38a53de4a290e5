module Metrics = Prognosis_obs.Metrics
module Trace = Prognosis_obs.Trace

type config = { min_runs : int; max_runs : int; agreement : float }

let default = { min_runs = 3; max_runs = 50; agreement = 0.95 }

type 'o observation = { answer : 'o list; count : int }

type 'o verdict =
  | Deterministic of 'o list
  | Nondeterministic of 'o observation list

(* Distinct answers in first-seen order, then a stable sort by count:
   equal counts keep first-seen order, so a tally prints the same on
   every run. *)
let tally answers =
  let rec add obs a =
    match obs with
    | [] -> [ { answer = a; count = 1 } ]
    | o :: rest ->
        if o.answer = a then { o with count = o.count + 1 } :: rest
        else o :: add rest a
  in
  List.stable_sort
    (fun a b -> compare b.count a.count)
    (List.fold_left add [] answers)

let m_checks = Metrics.counter Metrics.default "nondet.checks"
let m_runs = Metrics.counter Metrics.default "nondet.sul_runs"
let m_retries = Metrics.counter Metrics.default "nondet.retries"
let m_nondet = Metrics.counter Metrics.default "nondet.nondeterministic"

let query cfg sul word =
  if cfg.min_runs < 1 then invalid_arg "Nondet.query: min_runs must be >= 1";
  Metrics.inc m_checks;
  let runs n =
    Metrics.inc ~by:n m_runs;
    List.init n (fun _ -> Sul.query sul word)
  in
  let first = runs cfg.min_runs in
  match tally first with
  | [ only ] -> Deterministic only.answer
  | _ -> (
      (* Disagreement among the first min_runs executions: retry up to
         the run budget and take a sufficiently dominant plurality. *)
      let retries = max 0 (cfg.max_runs - cfg.min_runs) in
      if retries > 0 then Metrics.inc ~by:retries m_retries;
      if Trace.enabled () then
        Trace.event
          ~attrs:
            [
              ("word_len", Prognosis_obs.Jsonx.Int (List.length word));
              ("min_runs", Prognosis_obs.Jsonx.Int cfg.min_runs);
              ("extra_runs", Prognosis_obs.Jsonx.Int retries);
            ]
          "nondet.retry";
      let all = first @ runs retries in
      let obs = tally all in
      let total = List.length all in
      match obs with
      | best :: _ when float_of_int best.count /. float_of_int total >= cfg.agreement ->
          Deterministic best.answer
      | _ ->
          Metrics.inc m_nondet;
          if Trace.enabled () then
            Trace.event
              ~attrs:
                [
                  ("word_len", Prognosis_obs.Jsonx.Int (List.length word));
                  ("variants", Prognosis_obs.Jsonx.Int (List.length obs));
                  ("runs", Prognosis_obs.Jsonx.Int total);
                ]
              "nondet.verdict_nondeterministic";
          Nondeterministic obs)

let distribution ~runs sul word =
  tally (List.init runs (fun _ -> Sul.query sul word))

let frequency obs pred =
  let total = List.fold_left (fun n o -> n + o.count) 0 obs in
  let hits =
    List.fold_left (fun n o -> if pred o.answer then n + o.count else n) 0 obs
  in
  if total = 0 then 0.0 else float_of_int hits /. float_of_int total

type ('i, 'o) witness = { word : 'i list; answers : 'o observation list }

exception Nondeterministic of (string, string) witness

let modal_oracle ~runs sul =
  if runs < 1 then invalid_arg "Nondet.modal_oracle: runs must be >= 1";
  let memo = Hashtbl.create 64 in
  let rec answer word =
    match Hashtbl.find_opt memo word with
    | Some a -> a
    | None ->
        let a =
          match List.rev word with
          | [] -> []
          | _last_sym :: rev_prefix -> (
              let prefix_answer = answer (List.rev rev_prefix) in
              (* Plurality of the final output over fresh runs. *)
              let lasts =
                List.init runs (fun _ -> List.rev (Sul.query sul word))
                |> List.filter_map (function o :: _ -> Some [ o ] | [] -> None)
              in
              match tally lasts with
              | { answer = [ o ]; _ } :: _ -> prefix_answer @ [ o ]
              | _ -> invalid_arg "Nondet.modal_oracle: SUL returned no outputs")
        in
        Hashtbl.replace memo word a;
        a
  in
  answer
