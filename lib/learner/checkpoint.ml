module Metrics = Prognosis_obs.Metrics
module Trace = Prognosis_obs.Trace
module Jsonx = Prognosis_obs.Jsonx

type error =
  | Missing_file of { path : string; detail : string }
  | Foreign_magic of { path : string; found : string }
  | Kind_mismatch of { path : string; found : string; expected : string }
  | Version_mismatch of { path : string; found : string; running : string }
  | Corrupt of { path : string; detail : string }

let error_to_string = function
  | Missing_file { path; detail } ->
      Printf.sprintf "%s: no checkpoint (%s)" path detail
  | Foreign_magic { path; found } ->
      Printf.sprintf "%s: not a prognosis checkpoint (found %S)" path found
  | Kind_mismatch { path; found; expected } ->
      Printf.sprintf "%s holds a %s checkpoint, expected %s" path found expected
  | Version_mismatch { path; found; running } ->
      Printf.sprintf
        "%s was written by OCaml %s; this binary runs %s (checkpoints are \
         local crash-recovery state — re-learn)"
        path found running
  | Corrupt { path; detail } -> Printf.sprintf "%s: corrupt checkpoint: %s" path detail

type ('i, 'o) snapshot = {
  queries : int;
  words : ('i list * 'o list) list;
  exec : string option;
}

let magic = "prognosis-checkpoint/1"

let m_saves = Metrics.counter Metrics.default "checkpoint.saves"
let g_queries = Metrics.gauge Metrics.default "checkpoint.queries"
let g_bytes = Metrics.gauge Metrics.default "checkpoint.bytes"
let g_words = Metrics.gauge Metrics.default "checkpoint.words"

let save ~path ~kind snapshot =
  Trace.with_span
    ~attrs:
      [
        ("kind", Jsonx.String kind);
        ("queries", Jsonx.Int snapshot.queries);
        ("words", Jsonx.Int (List.length snapshot.words));
        ("phase", Jsonx.String "checkpoint");
      ]
    "checkpoint.save"
    (fun () ->
      let contents =
        String.concat "\n"
          [ magic; kind; Sys.ocaml_version; Marshal.to_string snapshot [] ]
      in
      Prognosis_obs.Atomic_file.write ~path contents;
      Metrics.inc m_saves;
      Metrics.set g_queries (float_of_int snapshot.queries);
      Metrics.set g_words (float_of_int (List.length snapshot.words));
      Metrics.set g_bytes (float_of_int (String.length contents)))

let load ~path ~kind =
  match open_in_bin path with
  | exception Sys_error msg -> Error (Missing_file { path; detail = msg })
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let line () = try Some (input_line ic) with End_of_file -> None in
          match (line (), line (), line ()) with
          | Some m, _, _ when m <> magic ->
              Error (Foreign_magic { path; found = m })
          | _, Some k, _ when k <> kind ->
              Error (Kind_mismatch { path; found = k; expected = kind })
          | _, _, Some v when v <> Sys.ocaml_version ->
              Error
                (Version_mismatch { path; found = v; running = Sys.ocaml_version })
          | Some _, Some _, Some _ -> (
              match (Marshal.from_channel ic : ('i, 'o) snapshot) with
              | exception _ ->
                  Error (Corrupt { path; detail = "unreadable payload" })
              | s -> Ok s)
          | _ -> Error (Corrupt { path; detail = "truncated header" }))

(* --- run sessions --- *)

type spec = { dir : string; every : int; budget : int option; resume : bool }

let spec ?(every = 500) ?budget ?(resume = false) ~dir () =
  if every <= 0 then invalid_arg "Checkpoint.spec: every must be positive";
  { dir; every; budget; resume }

exception Budget_exhausted of { queries : int; path : string }
exception Unusable of error

type ('i, 'o) session = {
  path : string;
  kind : string;
  s : spec;
  c : ('i, 'o) Cache.t;
  base : int; (* queries carried over from the loaded snapshot *)
  exec0 : string option;
  mutable exec_state : (unit -> string) option;
  mutable last_saved : int; (* cumulative query count at the last write *)
  mutable writes : int;
}

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let start ~kind s =
  mkdir_p s.dir;
  let path = Filename.concat s.dir (kind ^ ".ckpt") in
  let c = Cache.create () in
  let base, exec0 =
    if not s.resume then (0, None)
    else
      match load ~path ~kind with
      | Ok snap ->
          (* A payload that unmarshals but whose words do not fit
             together is as corrupt as one that does not unmarshal. *)
          (try Cache.restore c snap.words with
          | Invalid_argument detail ->
              raise (Unusable (Corrupt { path; detail }))
          | Cache.Conflict i ->
              let detail =
                Printf.sprintf "cached words disagree at symbol %d" i
              in
              raise (Unusable (Corrupt { path; detail })));
          Trace.event
            ~attrs:
              [
                ("kind", Jsonx.String kind);
                ("queries", Jsonx.Int snap.queries);
                ("words", Jsonx.Int (List.length snap.words));
              ]
            "checkpoint.resume";
          (snap.queries, snap.exec)
      | Error (Missing_file _) -> (0, None)
      | Error e -> raise (Unusable e)
  in
  {
    path;
    kind;
    s;
    c;
    base;
    exec0;
    exec_state = None;
    last_saved = base;
    writes = 0;
  }

let file t = t.path
let cache t = t.c
let resumed_queries t = t.base
let exec_blob t = t.exec0
let set_exec_state t f = t.exec_state <- Some f
let queries t = t.base + Cache.misses t.c
let saves t = t.writes

let write t =
  let q = queries t in
  save ~path:t.path ~kind:t.kind
    {
      queries = q;
      words = Cache.dump t.c;
      exec = Option.map (fun f -> f ()) t.exec_state;
    };
  t.last_saved <- q;
  t.writes <- t.writes + 1

let check t =
  let q = queries t in
  if q - t.last_saved >= t.s.every then write t;
  match t.s.budget with
  | Some b when q >= b ->
      if q > t.last_saved then write t;
      raise (Budget_exhausted { queries = q; path = t.path })
  | _ -> ()

let instrument t (mq : ('i, 'o) Oracle.membership) =
  let checked run words =
    let answers = run words in
    check t;
    answers
  in
  let c = mq.Oracle.coded in
  Oracle.of_coded mq.Oracle.stats
    { c with run = checked c.run; run_batch = Option.map checked c.run_batch }

let on_round t ~round:_ ~states:_ = if queries t > t.last_saved then write t

let finish t = if queries t > t.last_saved then write t
