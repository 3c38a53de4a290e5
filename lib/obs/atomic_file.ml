(* Atomic whole-file writes: temp file in the target directory, then
   rename. Every report, model, checkpoint and snapshot writer goes
   through here, so a crash mid-write never leaves a truncated artifact
   where a complete one is expected. *)

let write ~path contents =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  (try
     Fun.protect
       ~finally:(fun () -> close_out oc)
       (fun () -> output_string oc contents)
   with e ->
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Sys.rename tmp path

let rec mkdir_p dir =
  let refuse why =
    raise (Sys_error (Printf.sprintf "cannot create directory %S: %s" dir why))
  in
  if dir = "" then refuse "empty path"
  else if Sys.file_exists dir then begin
    if not (Sys.is_directory dir) then refuse "it exists and is not a directory"
  end
  else begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with
    | Unix.Unix_error (Unix.EEXIST, _, _) when Sys.is_directory dir -> ()
    | Unix.Unix_error (e, _, _) -> refuse (Unix.error_message e)
  end

let write_lines ~path lines =
  let buf = Buffer.create 4096 in
  List.iter
    (fun line ->
      Buffer.add_string buf line;
      Buffer.add_char buf '\n')
    lines;
  write ~path (Buffer.contents buf)
