(* Monomorphic lexicographic order on coded words: a proper prefix
   sorts before its extensions. Top-level recursion, so a comparison
   allocates no closure. *)
let rec compare_from (a : int array) (b : int array) n i =
  if i = n then Int.compare (Array.length a) (Array.length b)
  else
    let x = Array.unsafe_get a i and y = Array.unsafe_get b i in
    if x <> y then Int.compare x y else compare_from a b n (i + 1)

let compare_words a b =
  let la = Array.length a and lb = Array.length b in
  compare_from a b (if la < lb then la else lb) 0

let rec prefix_from (p : int array) (w : int array) i =
  i = Array.length p
  || (Array.unsafe_get p i = Array.unsafe_get w i && prefix_from p w (i + 1))

let is_prefix p w = Array.length p <= Array.length w && prefix_from p w 0

(* Stable merge sort of the word indices [a.(lo) .. a.(hi - 1)] by
   their words in [w]: monomorphic and closure-free, and, being stable,
   the order [Array.stable_sort] gives with [compare_words]. *)
let rec sort_indices w (a : int array) tmp lo hi =
  if hi - lo > 1 then begin
    let mid = (lo + hi) / 2 in
    sort_indices w a tmp lo mid;
    sort_indices w a tmp mid hi;
    if compare_words w.(a.(mid - 1)) w.(a.(mid)) > 0 then begin
      Array.blit a lo tmp lo (hi - lo);
      let i = ref lo and j = ref mid in
      for k = lo to hi - 1 do
        let left =
          !j = hi || (!i < mid && compare_words w.(tmp.(!i)) w.(tmp.(!j)) <= 0)
        in
        a.(k) <- tmp.(if left then !i else !j);
        if left then incr i else incr j
      done
    end
  end

type t = {
  runs : int array;
  cover : int array;
  words : int;
  dupes : int;
  subsumed : int;
}

(* In lexicographic order a word is a prefix of some other planned
   word iff it is a prefix of its immediate successor: any word sorting
   between a prefix and its extension must itself share that prefix.
   Walking the sorted words from the end, such a word takes its
   successor's run; any other word starts a new one. *)
let build ws =
  let n = Array.length ws in
  let order = Array.init n Fun.id and cover = Array.make n 0 in
  sort_indices ws order cover 0 n;
  let runs = ref [] and n_runs = ref 0 and dupes = ref 0 in
  for k = n - 1 downto 0 do
    let i = order.(k) in
    let j = if k + 1 < n then order.(k + 1) else -1 in
    if j >= 0 && is_prefix ws.(i) ws.(j) then begin
      if Array.length ws.(i) = Array.length ws.(j) then incr dupes;
      cover.(i) <- cover.(j)
    end
    else begin
      runs := i :: !runs;
      cover.(i) <- !n_runs;
      incr n_runs
    end
  done;
  (* Runs were numbered from the end; number them in execution order. *)
  Array.iteri (fun i r -> cover.(i) <- !n_runs - 1 - r) cover;
  {
    runs = Array.of_list !runs;
    cover;
    words = n;
    dupes = !dupes;
    subsumed = n - !dupes - !n_runs;
  }
