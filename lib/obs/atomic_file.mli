(** Atomic whole-file writes (temp file + rename), the same discipline
    the checkpoint snapshots follow. A reader never observes a
    partially written file: it sees either the previous content or the
    new one. *)

val write : path:string -> string -> unit
(** [write ~path contents] writes [contents] to [path ^ ".tmp"] and
    renames it over [path]. The temp file is removed on failure. *)

val mkdir_p : string -> unit
(** [mkdir_p dir] creates [dir] and its missing parents (mode 0o755);
    an existing directory is left as it is.
    @raise Sys_error saying why, when [dir] is empty, when it or a
    parent exists and is not a directory, or when the system refuses. *)

val write_lines : path:string -> string list -> unit
(** [write_lines ~path lines] atomically writes [lines], each
    terminated by a newline. *)
