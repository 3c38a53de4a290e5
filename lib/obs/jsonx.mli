(** A minimal JSON representation used by the telemetry layer: the
    trace sinks, the metrics snapshots and the machine-readable
    reports all serialize through this module, so the repo needs no
    external JSON dependency. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact single-line rendering (suitable for JSONL). *)

exception Parse_error of string

val of_string : string -> t
(** Parse one JSON value; raises {!Parse_error} on malformed input,
    trailing garbage, or nesting deeper than 512 levels (a recursion
    guard — the parser descends once per level). *)

val of_string_opt : string -> t option

val member : string -> t -> t option
(** [member k (Obj ...)] looks up field [k]; [None] on non-objects. *)

val to_int_opt : t -> int option
val to_string_opt : t -> string option
