module Metrics = Prognosis_obs.Metrics

exception Conflict of int

module Coder = Oracle.Coder

module Trie = struct
  (* Compacted trie over coded words: path-compressed edges, each an
     [int array] of input ids with the matching output ids alongside,
     so a chain of single-child nodes costs one node and walking it is
     an int-array scan. A node's children sit in an array indexed by
     the first input id of their edge, [nil] in the empty slots; [dump]
     sorts siblings by the symbols themselves so the checkpoint order
     is canonical. Every change is one pointer write of a fully built
     value (a filled slot, a grown copy of a child array, a split
     edge's slot), so {!Shared}'s lock-free readers see a node before
     or after it (see the interface). *)

  type node = {
    path : int array; (* compressed edge into this subtree *)
    pouts : int array; (* output ids along the edge; same length *)
    mutable kids : node array; (* slot x: the child whose edge starts
                                  with id x, or [nil] *)
  }

  type t = {
    root : node;
    mutable prefixes : int; (* distinct cached non-empty prefixes *)
    mutable phys : int; (* physical (compacted) nodes, root included *)
  }

  let nil = { path = [||]; pouts = [||]; kids = [||] }

  let create () = { root = { nil with kids = [||] }; prefixes = 0; phys = 1 }

  (* The child whose edge starts with [x], or [nil]. *)
  let find_kid node x =
    let kids = node.kids in
    if x < Array.length kids then Array.unsafe_get kids x else nil

  (* Links [kid] under [node] in the slot of its first id. *)
  let set_kid node kid =
    let x = kid.path.(0) and kids = node.kids in
    let len = Array.length kids in
    if x < len then kids.(x) <- kid
    else
      let grown = Array.make (max (x + 1) (2 * len)) nil in
      Array.blit kids 0 grown 0 len;
      grown.(x) <- kid;
      node.kids <- grown

  (* Splits [kid]'s edge after its first [j] symbols: a fresh head
     carrying them, over a fresh tail inheriting the rest and [kid]'s
     children, takes [kid]'s slot in [parent]. *)
  let split t parent kid j =
    let len = Array.length kid.path in
    let tail =
      {
        path = Array.sub kid.path j (len - j);
        pouts = Array.sub kid.pouts j (len - j);
        kids = kid.kids;
      }
    in
    let head =
      {
        path = Array.sub kid.path 0 j;
        pouts = Array.sub kid.pouts 0 j;
        kids = [||];
      }
    in
    set_kid head tail;
    set_kid parent head;
    t.phys <- t.phys + 1;
    head

  (* The leaf holding [word]/[outs] from position [i] on. *)
  let fresh_leaf t word outs i =
    let len = Array.length word - i in
    t.phys <- t.phys + 1;
    t.prefixes <- t.prefixes + len;
    { path = Array.sub word i len; pouts = Array.sub outs i len; kids = [||] }

  let rec insert_at t word outs node i =
    if i < Array.length word then
      let kid = find_kid node word.(i) in
      if kid == nil then set_kid node (fresh_leaf t word outs i)
      else insert_edge t word outs node kid 0 i

  and insert_edge t word outs parent kid j i =
    if j = Array.length kid.path then insert_at t word outs kid i
    else if i < Array.length word then
      if word.(i) = kid.path.(j) then (
        if outs.(i) <> kid.pouts.(j) then raise (Conflict i);
        insert_edge t word outs parent kid (j + 1) (i + 1))
      else
        (* Diverges mid-edge: split, then branch off the head. *)
        set_kid (split t parent kid j) (fresh_leaf t word outs i)

  (* [word] and [outs] are coded and of equal length. *)
  let insert t (word : int array) (outs : int array) =
    if Array.length outs <> Array.length word then
      invalid_arg "Cache.insert: word/outputs length mismatch";
    insert_at t word outs t.root 0

  let rec on_edge word kid i j m =
    j = m
    || Array.unsafe_get word (i + j) = Array.unsafe_get kid.path j
       && on_edge word kid i (j + 1) m

  (* Whether coded [word] stays inside the trie from [node] on. A walk
     with a non-empty [out] follows a word already found: it skips the
     comparisons and copies the output ids along it into [out]. *)
  let rec walk word out node i =
    i = Array.length word
    ||
    let kid = find_kid node (Array.unsafe_get word i) in
    let r = Array.length word - i and p = Array.length kid.path in
    let m = if r < p then r else p in
    kid != nil
    && (Array.length out > 0 || on_edge word kid i 1 m)
    &&
    (if Array.length out > 0 then Array.blit kid.pouts 0 out i m;
     walk word out kid (i + m))

  (* A miss walks the trie once and allocates nothing; a hit walks it
     again to fill its answer. *)
  let lookup t (word : int array) =
    if not (walk word [||] t.root 0) then None
    else
      let out = Array.make (Array.length word) 0 in
      ignore (walk word out t.root 0);
      Some out

  let size t = t.prefixes + 1
  let compacted_nodes t = t.phys

  (* Maximal cached words: the trie's leaves, decoded through [syms]
     and [outs]. Every inserted word is a prefix of some leaf word
     (insert fills outputs along the whole path), so re-inserting the
     leaves rebuilds the trie exactly. The order is canonical:
     depth-first with siblings sorted by their actual first symbol, not
     its id (ids depend on insertion history), so the dump is a
     function of the cached word set alone and dump/restore round-trips
     byte-identically, even for dumps written by the pre-compaction
     implementation in hash-table order. *)
  let dump t syms outs =
    let acc = ref [] in
    let rec go node rev_in rev_out =
      let kids = List.filter (fun k -> k != nil) (Array.to_list node.kids) in
      match kids with
      | [] ->
          if rev_in <> [] then
            acc := (List.rev rev_in, List.rev rev_out) :: !acc
      | kids ->
          let kids =
            List.sort
              (fun a b -> compare syms.(a.path.(0)) syms.(b.path.(0)))
              kids
          in
          List.iter
            (fun k ->
              let ri = ref rev_in and ro = ref rev_out in
              for j = 0 to Array.length k.path - 1 do
                ri := syms.(k.path.(j)) :: !ri;
                ro := outs.(k.pouts.(j)) :: !ro
              done;
              go k !ri !ro)
            kids
    in
    go t.root [] [];
    List.rev !acc
end

let m_hits = Metrics.counter Metrics.default "cache.hits"
let m_misses = Metrics.counter Metrics.default "cache.misses"
let g_nodes = Metrics.gauge Metrics.default "cache.nodes"
let g_trie_nodes = Metrics.gauge Metrics.default "cache.trie.nodes"

(* --- Shared store ------------------------------------------------------

   One trie over one pair of coders, with a mutex taken only on insert.
   Lookups are optimistic: combined with the publication-safe
   [Trie.insert] above (reachable nodes are never mutated into
   inconsistent states, and every id a reachable node holds was
   published by its coder before the node was linked in), a racing
   reader can at worst observe a stale-but-consistent trie — and the
   generation check rejects even that before the answer escapes. *)

module Shared = struct
  type ('i, 'o) t = {
    trie : Trie.t;
    lock : Mutex.t;
    gen : int Atomic.t; (* odd while an insert is in flight *)
    syms : 'i Coder.t;
    outs : 'o Coder.t;
  }

  let create () =
    {
      trie = Trie.create ();
      lock = Mutex.create ();
      gen = Atomic.make 0;
      syms = Coder.create ();
      outs = Coder.create ();
    }

  (* One critical section per insert; the generation is even again on
     the way out whether the insert returns or raises ({!Conflict}). *)
  let insert_coded t word outs =
    Mutex.protect t.lock (fun () ->
        Atomic.incr t.gen;
        match Trie.insert t.trie word outs with
        | () -> Atomic.incr t.gen
        | exception e ->
            let bt = Printexc.get_raw_backtrace () in
            Atomic.incr t.gen;
            Printexc.raise_with_backtrace e bt)

  let locked t f = Mutex.protect t.lock (fun () -> f t.trie)

  (* Optimistic read: lock-free thanks to publication-safe inserts, but
     any overlap with a writer (generation moved, or odd at the start)
     voids the attempt — fall back to the mutex. An exception from the
     walk propagates: it cannot raise on a consistent trie, so one that
     does is a bug to surface, not a race to retry. *)
  let locked_lookup t word = locked t (fun x -> Trie.lookup x word)

  let lookup_coded t word =
    let g = Atomic.get t.gen in
    if g land 1 = 1 then locked_lookup t word
    else
      let v = Trie.lookup t.trie word in
      if Atomic.get t.gen = g then v else locked_lookup t word

  let size t = Trie.size t.trie
end

(* --- the store interface --------------------------------------------

   A cache value is a view over one of the two stores: a private trie
   with its own coders, or a {!Shared} store, whose coders every view
   shares. Hit/miss tallies belong to the view, so a fleet
   session's counts describe its own traffic even though the answers
   are pooled. *)

type ('i, 'o) store = Private of Trie.t | Shared of ('i, 'o) Shared.t

type ('i, 'o) t = {
  store : ('i, 'o) store;
  syms : 'i Coder.t;
  outs : 'o Coder.t;
  mutable hits : int;
  mutable misses : int;
}

let create () =
  {
    store = Private (Trie.create ());
    syms = Coder.create ();
    outs = Coder.create ();
    hits = 0;
    misses = 0;
  }

let shared (s : _ Shared.t) =
  { store = Shared s; syms = s.syms; outs = s.outs; hits = 0; misses = 0 }

let inputs t = t.syms
let outputs t = t.outs

(* A shared store's size is its endpoint's [nodes] in a fleet report,
   not a process-wide gauge every endpoint would overwrite. *)
let insert_coded t word outs =
  match t.store with
  | Private x ->
      Trie.insert x word outs;
      Metrics.set g_nodes (float_of_int (Trie.size x));
      Metrics.set g_trie_nodes (float_of_int (Trie.compacted_nodes x))
  | Shared s -> Shared.insert_coded s word outs

let lookup_coded t word =
  match t.store with
  | Private x -> Trie.lookup x word
  | Shared s -> Shared.lookup_coded s word

let insert t word outs =
  insert_coded t (Coder.intern_word t.syms word) (Coder.intern_word t.outs outs)

(* A symbol never interned is in no cached word. *)
let lookup t word =
  let ids = Array.of_list (List.map (Coder.find t.syms) word) in
  if Array.exists (fun i -> i < 0) ids then None
  else Option.map (Coder.decode t.outs) (lookup_coded t ids)

let trie t = match t.store with Private x -> x | Shared s -> s.trie
let size t = Trie.size (trie t)
let compacted_nodes t = Trie.compacted_nodes (trie t)

let dump t =
  let go x = Trie.dump x (Coder.symbols t.syms) (Coder.symbols t.outs) in
  match t.store with Private x -> go x | Shared s -> Shared.locked s go

let restore t words = List.iter (fun (w, outs) -> insert t w outs) words
let hits t = t.hits
let misses t = t.misses

let count t answer =
  (match answer with
  | Some _ ->
      t.hits <- t.hits + 1;
      Metrics.inc m_hits
  | None ->
      t.misses <- t.misses + 1;
      Metrics.inc m_misses);
  answer

let find_coded t word = count t (lookup_coded t word)

let wrap t (mq : ('i, 'o) Oracle.membership) =
  (* A miss replays the full word and records it; [insert_coded]
     raises [Conflict] when the fresh outputs contradict a cached
     prefix, which is the nondeterminism check. *)
  let run ids =
    match find_coded t ids with
    | Some answer -> answer
    | None ->
        let answer = mq.ask (Coder.decode t.syms ids) in
        let answer = Coder.intern_word t.outs answer in
        insert_coded t ids answer;
        answer
  in
  Oracle.of_coded mq.stats
    { inputs = t.syms; outputs = t.outs; run; run_batch = None }
