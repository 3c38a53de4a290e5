let rec is_prefix p w =
  match (p, w) with
  | [], _ -> true
  | x :: p', y :: w' -> x = y && is_prefix p' w'
  | _ :: _, [] -> false

type 'i t = {
  runs : 'i list list;
  cover : int array;
  words : int;
  dupes : int;
  subsumed : int;
}

(* Polymorphic [compare] on lists is lexicographic, so after sorting a
   word is a prefix of some other planned word iff it is a prefix of
   its immediate successor: any word sorting between a prefix and its
   extension must itself share that prefix. Walking the sorted words
   from the end, such a word takes its successor's run; any other word
   starts a new one. *)
let build words_list =
  let ws = Array.of_list words_list in
  let n = Array.length ws in
  let order = Array.init n Fun.id in
  Array.stable_sort (fun a b -> compare ws.(a) ws.(b)) order;
  let cover = Array.make n 0 in
  let runs = ref [] and n_runs = ref 0 and dupes = ref 0 in
  for k = n - 1 downto 0 do
    let i = order.(k) in
    let j = if k + 1 < n then order.(k + 1) else -1 in
    if j >= 0 && is_prefix ws.(i) ws.(j) then begin
      if List.compare_lengths ws.(i) ws.(j) = 0 then incr dupes;
      cover.(i) <- cover.(j)
    end
    else begin
      runs := ws.(i) :: !runs;
      cover.(i) <- !n_runs;
      incr n_runs
    end
  done;
  (* Runs were numbered from the end; number them in execution order. *)
  Array.iteri (fun i r -> cover.(i) <- !n_runs - 1 - r) cover;
  {
    runs = !runs;
    cover;
    words = n;
    dupes = !dupes;
    subsumed = n - !dupes - !n_runs;
  }
