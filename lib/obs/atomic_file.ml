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

let write_lines ~path lines =
  let buf = Buffer.create 4096 in
  List.iter
    (fun line ->
      Buffer.add_string buf line;
      Buffer.add_char buf '\n')
    lines;
  write ~path (Buffer.contents buf)
