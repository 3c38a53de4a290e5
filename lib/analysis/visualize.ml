module Mealy = Prognosis_automata.Mealy

let escape label = String.concat "\\\"" (String.split_on_char '"' label)

let diff_dot ?(name = "diff") ~input_pp ~output_pp a b =
  let buf = Buffer.create 2048 in
  let fmt = Format.formatter_of_buffer buf in
  Format.fprintf fmt "digraph %s {@\n  rankdir=LR;@\n  node [shape=circle];@\n" name;
  let id (sa, sb) = Printf.sprintf "s%d_%d" sa sb in
  Format.fprintf fmt "  __start [shape=none,label=\"\"];@\n  __start -> %s;@\n"
    (id (Mealy.initial a, Mealy.initial b));
  Model_diff.iter_product a b (fun ~path:_ pair i next oa ob ->
      let sym = (Mealy.inputs a).(i) in
      if oa = ob then
        Format.fprintf fmt "  %s -> %s [label=\"%s\"];@\n" (id pair) (id next)
          (escape (Format.asprintf "%a / %a" input_pp sym output_pp oa))
      else
        Format.fprintf fmt
          "  %s -> %s [color=red,fontcolor=red,label=\"%s\"];@\n" (id pair)
          (id next)
          (escape
             (Format.asprintf "%a / A:%a | B:%a" input_pp sym output_pp oa
                output_pp ob));
      true);
  Format.fprintf fmt "}@.";
  Buffer.contents buf

let write_file ~path contents =
  (* atomic (temp-file + rename), like every other report writer *)
  Prognosis_obs.Atomic_file.write ~path contents
