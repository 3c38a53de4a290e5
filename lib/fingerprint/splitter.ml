module Mealy = Prognosis_automata.Mealy
module Model_diff = Prognosis_analysis.Model_diff
module Metrics = Prognosis_obs.Metrics

let g_depth = Metrics.gauge Metrics.default "splitter.depth"

type tree =
  | Leaf of Library.entry option
  | Node of { word : string list; branches : (string list * tree) list }

let ( let* ) = Result.bind
let compare_output = List.compare String.compare

let sort_branches branches =
  List.sort (fun (a, _) (b, _) -> compare_output a b) branches

let same_alphabet a b = Mealy.inputs a.Library.model = Mealy.inputs b.Library.model

let check_alphabets = function
  | [] -> Ok ()
  | first :: rest -> (
      match List.find_opt (fun e -> not (same_alphabet first e)) rest with
      | None -> Ok ()
      | Some e ->
          Error
            (Printf.sprintf
               "entries %S and %S have different input alphabets"
               first.Library.name e.Library.name))

(* Partition [entries] by their output word on [word], preserving
   entry order within each group. *)
let partition_on word entries =
  let groups = ref [] in
  List.iter
    (fun (e : Library.entry) ->
      let out = Mealy.run e.model word in
      match List.assoc_opt out !groups with
      | Some cell -> cell := e :: !cell
      | None -> groups := (out, ref [ e ]) :: !groups)
    entries;
  List.map (fun (out, cell) -> (out, List.rev !cell)) !groups

let rec build_group entries =
  match entries with
  | [] -> Ok (Leaf None)
  | [ e ] -> Ok (Leaf (Some e))
  | (a : Library.entry) :: (b : Library.entry) :: _ -> (
      match Model_diff.shortest_difference a.model b.model with
      | None ->
          Error
            (Printf.sprintf
               "entries %S and %S are behaviourally equivalent (library not \
                deduplicated?)"
               a.name b.name)
      | Some w ->
          (* w.word separates a from b, so every part is a strict
             subset of [entries] and the recursion terminates. *)
          let parts = partition_on w.word entries in
          let* branches =
            List.fold_left
              (fun acc (out, part) ->
                let* acc = acc in
                let* sub = build_group part in
                Ok ((out, sub) :: acc))
              (Ok []) parts
          in
          Ok (Node { word = w.word; branches = sort_branches branches }))

let build entries =
  let* () = check_alphabets entries in
  build_group entries

type insert_outcome = Inserted of tree | Duplicate of Library.entry

let rec insert tree (entry : Library.entry) =
  match tree with
  | Leaf None -> Ok (Inserted (Leaf (Some entry)))
  | Leaf (Some e) ->
      if not (same_alphabet e entry) then
        Error
          (Printf.sprintf "entries %S and %S have different input alphabets"
             e.name entry.name)
      else (
        match Model_diff.shortest_difference e.model entry.model with
        | None -> Ok (Duplicate e)
        | Some w ->
            let out_old = Mealy.run e.model w.word in
            let out_new = Mealy.run entry.model w.word in
            Ok
              (Inserted
                 (Node
                    {
                      word = w.word;
                      branches =
                        sort_branches
                          [
                            (out_old, Leaf (Some e));
                            (out_new, Leaf (Some entry));
                          ];
                    })))
  | Node { word; branches } -> (
      let out = Mealy.run entry.model word in
      match List.assoc_opt out branches with
      | None ->
          Ok
            (Inserted
               (Node
                  {
                    word;
                    branches =
                      sort_branches ((out, Leaf (Some entry)) :: branches);
                  }))
      | Some sub -> (
          let* r = insert sub entry in
          match r with
          | Duplicate _ as d -> Ok d
          | Inserted sub' ->
              let branches =
                List.map
                  (fun (o, t) -> if o = out then (o, sub') else (o, t))
                  branches
              in
              Ok (Inserted (Node { word; branches }))))

let of_library lib =
  List.fold_left
    (fun acc (kind, entries) ->
      let* acc = acc in
      let* tree = build entries in
      Ok ((kind, tree) :: acc))
    (Ok [])
    (List.rev (Library.group_by_kind lib))

type stats = { depth : int; internal : int; leaves : int; max_word_len : int }

let stats tree =
  let rec go t =
    match t with
    | Leaf None -> { depth = 0; internal = 0; leaves = 0; max_word_len = 0 }
    | Leaf (Some _) -> { depth = 0; internal = 0; leaves = 1; max_word_len = 0 }
    | Node { word; branches } ->
        List.fold_left
          (fun acc (_, sub) ->
            let s = go sub in
            {
              depth = max acc.depth (1 + s.depth);
              internal = acc.internal + s.internal;
              leaves = acc.leaves + s.leaves;
              max_word_len = max acc.max_word_len s.max_word_len;
            })
          {
            depth = 1;
            internal = 1;
            leaves = 0;
            max_word_len = List.length word;
          }
          branches
  in
  go tree

let set_depth_gauge tree =
  Metrics.set g_depth (float_of_int (stats tree).depth)

let entries tree =
  let rec go t acc =
    match t with
    | Leaf None -> acc
    | Leaf (Some e) -> e :: acc
    | Node { branches; _ } ->
        List.fold_left (fun acc (_, sub) -> go sub acc) acc branches
  in
  List.rev (go tree [])

(* Incremental {!insert} only ever deepens the tree (a colliding
   branch grows a new node under the old leaf), so a long-lived
   service accumulating entries drifts towards a chain. A balanced
   rebuild is worthwhile once the depth exceeds twice the
   information-theoretic floor of log2(leaves); below that the
   incremental tree is close enough that rebuilding buys little. *)
let rebuild_if_skewed tree =
  let s = stats tree in
  let skewed =
    s.leaves >= 2
    && float_of_int s.depth > 2.0 *. (Float.log (float_of_int s.leaves) /. Float.log 2.0)
  in
  if not skewed then begin
    set_depth_gauge tree;
    Ok (tree, false)
  end
  else
    match build (entries tree) with
    | Error _ as e -> e
    | Ok rebuilt ->
        set_depth_gauge rebuilt;
        Ok (rebuilt, true)

let pp_word ppf w =
  Fmt.pf ppf "%a" Fmt.(list ~sep:(any " ") string) w

let rec pp ppf = function
  | Leaf None -> Fmt.pf ppf "(no entry)"
  | Leaf (Some e) -> Fmt.pf ppf "%s" e.name
  | Node { word; branches } ->
      Fmt.pf ppf "@[<v>ask: %a" pp_word word;
      List.iter
        (fun (out, sub) ->
          Fmt.pf ppf "@,@[<v 2>-> %a:@,%a@]" pp_word out pp sub)
        branches;
      Fmt.pf ppf "@]"
