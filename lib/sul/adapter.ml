type ('ai, 'ao, 'ci, 'co) t = {
  reset : unit -> unit;
  step : 'ai -> 'ao * 'ci list * 'co list;
  table : ('ai, 'ao, 'ci, 'co) Oracle_table.t;
  description : string;
}

let create ?(description = "adapter") ~reset ~step () =
  { reset; step; table = Oracle_table.create (); description }

let query t word =
  t.reset ();
  let outputs, steps =
    List.split
      (List.map
         (fun a ->
           let o, sent, received = t.step a in
           (o, { Oracle_table.sent; received }))
         word)
  in
  Oracle_table.add t.table ~abstract_inputs:word ~abstract_outputs:outputs
    ~steps;
  outputs

let to_sul t =
  Sul.make ~description:t.description ~reset:t.reset
    ~step:(fun a ->
      let o, _, _ = t.step a in
      o)
    ()
