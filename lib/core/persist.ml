module Mealy = Prognosis_automata.Mealy

type kind = Tcp_model | Quic_model | Dtls_model | Tcp_client_model

let kind_to_string = function
  | Tcp_model -> "tcp"
  | Quic_model -> "quic"
  | Dtls_model -> "dtls"
  | Tcp_client_model -> "tcp-client"

let kind_of_string = function
  | "tcp" -> Some Tcp_model
  | "quic" -> Some Quic_model
  | "dtls" -> Some Dtls_model
  | "tcp-client" -> Some Tcp_client_model
  | _ -> None

let all_kinds = [ Tcp_model; Quic_model; Dtls_model; Tcp_client_model ]

type load_error =
  | Missing_file of { path : string; detail : string }
  | Foreign_magic of { path : string; found : string }
  | Kind_mismatch of { path : string; found : string; expected : string }
  | Version_mismatch of { path : string; found : string; running : string }
  | Corrupt of { path : string; detail : string }

let load_error_to_string = function
  | Missing_file { path = _; detail } -> detail
  | Foreign_magic { path; found = _ } -> path ^ ": not a prognosis model file"
  | Kind_mismatch { path; found; expected } ->
      Printf.sprintf "%s holds a %s model, expected %s" path found expected
  | Version_mismatch { path; found; running } ->
      Printf.sprintf
        "%s is in model format %s; this binary reads %s (re-learn and \
         re-save)"
        path found running
  | Corrupt { path; detail } -> path ^ ": " ^ detail

(* --- the canonical text format (prognosis.model/1) ---

   A line-oriented plain-text serialization meant to be committed,
   diffed and reviewed: symbols are printed one per line (a symbol is
   the whole line, so spaces inside symbols are harmless), outputs are
   interned into a lexicographically sorted table, and states are BFS
   renumbered after minimization — so two equivalent learned machines
   serialize to byte-identical files, on any OCaml version or
   architecture. *)

let magic = "prognosis.model/1"
let magic_prefix = "prognosis.model/"

let to_string_model ~input_to_string ~output_to_string model =
  let inputs = Array.map input_to_string (Mealy.inputs model) in
  let delta =
    Array.init (Mealy.size model) (fun s ->
        Array.init (Mealy.alphabet_size model) (fun i ->
            fst (Mealy.step_idx model s i)))
  in
  let lambda =
    Array.init (Mealy.size model) (fun s ->
        Array.init (Mealy.alphabet_size model) (fun i ->
            output_to_string (snd (Mealy.step_idx model s i))))
  in
  Mealy.make ~size:(Mealy.size model) ~initial:(Mealy.initial model) ~inputs
    ~delta ~lambda

let check_symbol what s =
  String.iter
    (fun c ->
      if c = '\n' || c = '\r' then
        invalid_arg
          (Printf.sprintf "Persist: %s symbol %S contains a line break" what s))
    s;
  s

let text_of_model ~kind ~input_to_string ~output_to_string model =
  let m =
    Mealy.canonicalize
      (Mealy.minimize (to_string_model ~input_to_string ~output_to_string model))
  in
  let n = Mealy.alphabet_size m in
  let inputs = Mealy.inputs m in
  Array.iter (fun s -> ignore (check_symbol "input" s)) inputs;
  (* Intern distinct outputs, indices assigned in sorted order. *)
  let outputs = Hashtbl.create 16 in
  for s = 0 to Mealy.size m - 1 do
    for i = 0 to n - 1 do
      Hashtbl.replace outputs (snd (Mealy.step_idx m s i)) ()
    done
  done;
  let out_table =
    List.sort String.compare (Hashtbl.fold (fun o () acc -> o :: acc) outputs [])
  in
  List.iter (fun o -> ignore (check_symbol "output" o)) out_table;
  let out_index = Hashtbl.create 16 in
  List.iteri (fun idx o -> Hashtbl.add out_index o idx) out_table;
  let buf = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf s; Buffer.add_char buf '\n') fmt in
  line "%s" magic;
  line "kind %s" (kind_to_string kind);
  line "states %d" (Mealy.size m);
  line "initial %d" (Mealy.initial m);
  line "inputs %d" n;
  Array.iter (fun s -> line "%s" s) inputs;
  line "outputs %d" (List.length out_table);
  List.iter (fun o -> line "%s" o) out_table;
  line "transitions %d" (Mealy.transitions m);
  for s = 0 to Mealy.size m - 1 do
    for i = 0 to n - 1 do
      let s', o = Mealy.step_idx m s i in
      line "t %d %d %d %d" s i s' (Hashtbl.find out_index o)
    done
  done;
  line "end";
  Buffer.contents buf

let save_text ~path kind ~input_to_string ~output_to_string model =
  let text = text_of_model ~kind ~input_to_string ~output_to_string model in
  Prognosis_obs.Atomic_file.write ~path text

let parse_text ~path kind text =
  (* Errors carry the 1-based line number of the offending line, so a
     caller staring at a corrupt library of committed model files
     (`prognosis library build`) can pinpoint the damage. *)
  let lines = String.split_on_char '\n' text in
  (* A well-formed file ends with "end\n": drop the trailing "". *)
  let lines =
    match List.rev lines with "" :: rest -> List.rev rest | _ -> lines
  in
  let total = List.length lines in
  let corrupt_at line detail =
    Error (Corrupt { path; detail = Printf.sprintf "line %d: %s" line detail })
  in
  let ( let* ) = Result.bind in
  let pos = ref (List.mapi (fun i l -> (i + 1, l)) lines) in
  let next what =
    match !pos with
    | [] ->
        corrupt_at (total + 1)
          (Printf.sprintf "truncated file (expected %s)" what)
    | l :: rest ->
        pos := rest;
        Ok l
  in
  let field name =
    let* ln, l = next (name ^ " line") in
    match String.index_opt l ' ' with
    | Some i when String.sub l 0 i = name ->
        Ok (ln, String.sub l (i + 1) (String.length l - i - 1))
    | _ -> corrupt_at ln (Printf.sprintf "expected %S line, found %S" name l)
  in
  let int_field name =
    let* ln, v = field name in
    match int_of_string_opt v with
    | Some n -> Ok (ln, n)
    | None -> corrupt_at ln (Printf.sprintf "%s is not a number: %S" name v)
  in
  let* _, m = next "magic" in
  if m <> magic then
    if
      String.length m >= String.length magic_prefix
      && String.sub m 0 (String.length magic_prefix) = magic_prefix
    then Error (Version_mismatch { path; found = m; running = magic })
    else Error (Foreign_magic { path; found = m })
  else
    let* _, k = field "kind" in
    if k <> kind_to_string kind then
      Error (Kind_mismatch { path; found = k; expected = kind_to_string kind })
    else
      let* _, size = int_field "states" in
      let* _, initial = int_field "initial" in
      let* inputs_ln, n_inputs = int_field "inputs" in
      if n_inputs <= 0 then corrupt_at inputs_ln "empty input alphabet"
      else
        let rec read_symbols k acc =
          if k = 0 then Ok (List.rev acc)
          else
            let* _, l = next "symbol" in
            read_symbols (k - 1) (l :: acc)
        in
        let* inputs = read_symbols n_inputs [] in
        let inputs = Array.of_list inputs in
        let* () =
          match Mealy.repeated_input inputs with
          | Some (i, j) ->
              corrupt_at (inputs_ln + 1 + i)
                (Printf.sprintf "input symbol %S repeats line %d" inputs.(i)
                   (inputs_ln + 1 + j))
          | None -> Ok ()
        in
        let* _, n_outputs = int_field "outputs" in
        let* out_table = read_symbols n_outputs [] in
        let out_table = Array.of_list out_table in
        let* trans_ln, n_trans = int_field "transitions" in
        if size <= 0 then corrupt_at trans_ln "no states"
        else if n_trans <> size * n_inputs then
          corrupt_at trans_ln
            (Printf.sprintf "transition count %d is not states*inputs = %d"
               n_trans (size * n_inputs))
        else begin
          let delta = Array.init size (fun _ -> Array.make n_inputs 0) in
          let lambda = Array.init size (fun _ -> Array.make n_inputs "") in
          let rec read_trans k =
            if k = 0 then Ok ()
            else
              let* ln, l = next "transition" in
              match String.split_on_char ' ' l with
              | [ "t"; s; i; s'; o ] -> (
                  match
                    ( int_of_string_opt s,
                      int_of_string_opt i,
                      int_of_string_opt s',
                      int_of_string_opt o )
                  with
                  | Some s, Some i, Some s', Some o
                    when s >= 0 && s < size && i >= 0 && i < n_inputs
                         && o >= 0 && o < n_outputs ->
                      delta.(s).(i) <- s';
                      lambda.(s).(i) <- out_table.(o);
                      read_trans (k - 1)
                  | _ -> corrupt_at ln (Printf.sprintf "bad transition line %S" l))
              | _ -> corrupt_at ln (Printf.sprintf "bad transition line %S" l)
          in
          let* () = read_trans n_trans in
          let* end_ln, e = next "end marker" in
          if e <> "end" then
            corrupt_at end_ln (Printf.sprintf "expected \"end\", found %S" e)
          else
            try
              Ok
                (Mealy.make ~size ~initial ~inputs ~delta ~lambda)
            with Invalid_argument msg ->
              corrupt_at end_ln ("invalid machine: " ^ msg)
        end

let load_text ~path kind =
  match open_in_bin path with
  | exception Sys_error msg -> Error (Missing_file { path; detail = msg })
  | ic ->
      let text =
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      parse_text ~path kind text
