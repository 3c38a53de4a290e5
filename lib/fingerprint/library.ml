module Mealy = Prognosis_automata.Mealy
module Persist = Prognosis.Persist
module Jsonx = Prognosis_obs.Jsonx
module Trace = Prognosis_obs.Trace

type entry = {
  name : string;
  kind : Persist.kind;
  file : string;
  model : (string, string) Mealy.t;
  text : string;
}

type t = { dir : string; entries : entry list }

let schema = "prognosis.library/1"
let manifest_file = "library.json"
let manifest_path dir = Filename.concat dir manifest_file

let sanitize name =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.' -> c
      | _ -> '-')
    name

let canonical_text ~kind model =
  Persist.text_of_model ~kind ~input_to_string:Fun.id ~output_to_string:Fun.id
    model

let entry_of_model ~name ~kind model =
  let model = Mealy.canonicalize (Mealy.minimize model) in
  {
    name;
    kind;
    file = sanitize name ^ ".model";
    model;
    text = canonical_text ~kind model;
  }

let sniff_kind text =
  match String.split_on_char '\n' text with
  | _magic :: kind_line :: _ -> (
      match String.split_on_char ' ' kind_line with
      | [ "kind"; k ] -> Persist.kind_of_string k
      | _ -> None)
  | _ -> None

let find t name = List.find_opt (fun e -> e.name = name) t.entries

let group_by_kind t =
  List.filter_map
    (fun kind ->
      match List.filter (fun e -> e.kind = kind) t.entries with
      | [] -> None
      | es -> Some (kind, es))
    Persist.all_kinds

let entry_json e =
  Jsonx.Obj
    [
      ("name", Jsonx.String e.name);
      ("kind", Jsonx.String (Persist.kind_to_string e.kind));
      ("file", Jsonx.String e.file);
      ("states", Jsonx.Int (Mealy.size e.model));
      ("transitions", Jsonx.Int (Mealy.transitions e.model));
      ("alphabet", Jsonx.Int (Mealy.alphabet_size e.model));
    ]

let to_json t =
  Jsonx.Obj
    [
      ("schema", Jsonx.String schema);
      ("entries", Jsonx.List (List.map entry_json t.entries));
    ]

let write_manifest t =
  Prognosis_obs.Atomic_file.write ~path:(manifest_path t.dir)
    (Jsonx.to_string (to_json t) ^ "\n")

let read_file path =
  match open_in_bin path with
  | exception Sys_error msg -> Error msg
  | ic ->
      Ok
        (Fun.protect
           ~finally:(fun () -> close_in ic)
           (fun () -> really_input_string ic (in_channel_length ic)))

let ( let* ) = Result.bind

(* Parse one model file into an entry. The canonical text is
   re-rendered from the parsed machine rather than trusted from disk,
   so a hand-edited-but-still-parseable file cannot smuggle a
   non-canonical identity into the library. *)
let load_entry ~dir ~name ~file kind =
  let path = Filename.concat dir file in
  let* model =
    Result.map_error Persist.load_error_to_string (Persist.load_text ~path kind)
  in
  Ok { name; kind; file; model; text = canonical_text ~kind model }

let load ~dir =
  Trace.with_span "library.load" @@ fun () ->
  let path = manifest_path dir in
  let* text =
    Result.map_error (fun m -> "no library manifest: " ^ m) (read_file path)
  in
  let* json =
    Option.to_result ~none:(path ^ ": malformed manifest JSON")
      (Jsonx.of_string_opt text)
  in
  let* () =
    match Jsonx.member "schema" json with
    | Some (Jsonx.String s) when s = schema -> Ok ()
    | Some (Jsonx.String s) ->
        Error (Printf.sprintf "%s: schema %S, this build reads %S" path s schema)
    | _ -> Error (path ^ ": missing schema field")
  in
  let* raw_entries =
    match Jsonx.member "entries" json with
    | Some (Jsonx.List l) -> Ok l
    | _ -> Error (path ^ ": missing entries list")
  in
  let* entries =
    List.fold_left
      (fun acc e ->
        let* acc = acc in
        let str k = Option.bind (Jsonx.member k e) Jsonx.to_string_opt in
        match (str "name", str "kind", str "file") with
        | Some name, Some kind_s, Some file -> (
            match Persist.kind_of_string kind_s with
            | None ->
                Error (Printf.sprintf "%s: entry %S: unknown kind %S" path name kind_s)
            | Some kind ->
                let* entry = load_entry ~dir ~name ~file kind in
                Ok (entry :: acc))
        | _ -> Error (path ^ ": entry missing name/kind/file"))
      (Ok []) raw_entries
  in
  Ok { dir; entries = List.rev entries }

let build ~check ~dir =
  Trace.with_span "library.build" @@ fun () ->
  let* files =
    match Sys.readdir dir with
    | files -> Ok (List.sort String.compare (Array.to_list files))
    | exception Sys_error msg -> Error msg
  in
  let models =
    List.filter (fun f -> Filename.check_suffix f ".model") files
  in
  let* entries, notes =
    List.fold_left
      (fun acc file ->
        let* entries, notes = acc in
        let path = Filename.concat dir file in
        let* text = read_file path in
        let* kind =
          Option.to_result
            ~none:(path ^ ": line 2: missing or unknown kind header")
            (sniff_kind text)
        in
        let* entry =
          load_entry ~dir ~name:(Filename.chop_suffix file ".model") ~file kind
        in
        let* () = Result.map_error (fun m -> path ^ ": " ^ m) (check entry) in
        match
          List.find_opt
            (fun e -> e.kind = entry.kind && String.equal e.text entry.text)
            entries
        with
        | Some dup ->
            Ok
              ( entries,
                Printf.sprintf "%s: behaviourally identical to %s, skipped"
                  file dup.name
                :: notes )
        | None -> Ok (entry :: entries, notes))
      (Ok ([], []))
      models
  in
  let t = { dir; entries = List.rev entries } in
  write_manifest t;
  Ok (t, List.rev notes)

type add_outcome = Added of t | Duplicate of entry

let add t ~name ~kind model =
  Trace.with_span "library.add" @@ fun () ->
  let entry = entry_of_model ~name ~kind model in
  match
    List.find_opt
      (fun e -> e.kind = kind && String.equal e.text entry.text)
      t.entries
  with
  | Some dup -> Ok (Duplicate dup)
  | None ->
      if find t name <> None then
        Error (Printf.sprintf "library already has an entry named %S" name)
      else if List.exists (fun e -> e.file = entry.file) t.entries then
        Error
          (Printf.sprintf "library file name %S already taken (rename the entry)"
             entry.file)
      else begin
        Prognosis_obs.Atomic_file.write
          ~path:(Filename.concat t.dir entry.file)
          entry.text;
        let t = { t with entries = t.entries @ [ entry ] } in
        write_manifest t;
        Ok (Added t)
      end
