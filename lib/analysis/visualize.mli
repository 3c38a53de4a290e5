(** Model visualisation (paper §5): Graphviz renderings of the
    differences between two models, used to explain anomalies to
    developers. A single model renders with
    {!Prognosis_automata.Mealy.to_dot}. *)

val diff_dot :
  ?name:string ->
  input_pp:(Format.formatter -> 'i -> unit) ->
  output_pp:(Format.formatter -> 'o -> unit) ->
  ('i, 'o) Prognosis_automata.Mealy.t ->
  ('i, 'o) Prognosis_automata.Mealy.t ->
  string
(** Renders the product of two models; edges where the outputs disagree
    are highlighted in red with both outputs on the label. *)

val write_file : path:string -> string -> unit
