module Metrics = Prognosis_obs.Metrics

exception Conflict

module Trie = struct
  (* Compacted trie over interned symbol ids. Input and output symbols
     are interned once into dense int ids; the trie itself stores
     path-compressed edges — an [int array] of symbol ids with the
     matching output ids alongside — so a chain of single-child nodes
     costs one node and walking it is an int-array scan, not a hashtable
     probe per symbol. Children are kept sorted by first edge symbol id
     for cheap insertion; [dump] re-sorts siblings by the symbols
     themselves so the checkpoint order is canonical.

     [lookup] never mutates the structure (unknown symbols are a miss,
     not an interning event), so {!Sharded}'s lock-free readers can
     probe a trie while one writer inserts into it. *)

  type node = {
    path : int array; (* compressed edge into this subtree; immutable
                         once the node is reachable (see [split]) *)
    pouts : int array; (* output ids along the edge; same length *)
    mutable kids : node list; (* sorted by [path.(0)]; first ids distinct *)
  }

  (* Dense ids for one symbol type: [arr.(id)] is the symbol, [ids]
     the reverse map. *)
  type 'a interner = {
    ids : ('a, int) Hashtbl.t;
    mutable arr : 'a array;
    mutable n : int;
  }

  type ('i, 'o) t = {
    syms : 'i interner;
    outs : 'o interner;
    root : node;
    mutable prefixes : int; (* distinct cached non-empty prefixes *)
    mutable phys : int; (* physical (compacted) nodes, root included *)
  }

  let interner () = { ids = Hashtbl.create 16; arr = [||]; n = 0 }

  let create () =
    {
      syms = interner ();
      outs = interner ();
      root = { path = [||]; pouts = [||]; kids = [] };
      prefixes = 0;
      phys = 1;
    }

  (* The id of [x], or -1. Symbols normally come from one alphabet
     array and are physically shared, so a small table is scanned with
     [==] before [x] is hashed. The scan is bounded by the array value
     read here: a lock-free {!Sharded} reader may see a newer [n] than
     array. *)
  let id_of it x =
    let a = it.arr in
    let n = min it.n (Array.length a) in
    let rec scan i =
      if i = n then -1 else if Array.unsafe_get a i == x then i else scan (i + 1)
    in
    let i = if n > 16 then -1 else scan 0 in
    if i >= 0 then i
    else match Hashtbl.find_opt it.ids x with Some i -> i | None -> -1

  let intern it x =
    let id = id_of it x in
    if id >= 0 then id
    else begin
      let id = it.n in
      let cap = Array.length it.arr in
      if id >= cap then begin
        let a = Array.make (max 8 (2 * cap)) x in
        Array.blit it.arr 0 a 0 it.n;
        it.arr <- a
      end;
      it.arr.(id) <- x;
      it.n <- id + 1;
      Hashtbl.add it.ids x id;
      id
    end

  let conflict () = raise Conflict

  let find_kid kids xi =
    let rec go = function
      | [] -> None
      | k :: rest -> if k.path.(0) = xi then Some k else go rest
    in
    go kids

  let insert_sorted kid kids =
    let x = kid.path.(0) in
    let rec go = function
      | [] -> [ kid ]
      | k :: _ as l when x < k.path.(0) -> kid :: l
      | k :: rest -> k :: go rest
    in
    go kids

  (* Split [kid]'s edge after its first [j] symbols. Mutation is
     publication-safe for lock-free concurrent readers ({!Sharded}): a
     reachable node's [path]/[pouts] arrays are never shrunk or
     overwritten in place. Instead a fresh head node (carrying the first
     [j] symbols, with a fresh tail inheriting the rest) replaces [kid]
     in [parent]'s child list with one pointer write, so a racing lookup
     sees either the old consistent node or the new consistent pair —
     never a half-mutated edge. *)
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
        kids = [ tail ];
      }
    in
    parent.kids <- List.map (fun k -> if k == kid then head else k) parent.kids;
    t.phys <- t.phys + 1;
    head

  let insert t word outputs =
    if List.length word <> List.length outputs then
      invalid_arg "Cache.insert: word/outputs length mismatch";
    let fresh_leaf word outs =
      let ids = Array.of_list (List.map (intern t.syms) word) in
      let oids = Array.of_list (List.map (intern t.outs) outs) in
      t.phys <- t.phys + 1;
      t.prefixes <- t.prefixes + Array.length ids;
      { path = ids; pouts = oids; kids = [] }
    in
    let rec at_node node word outs =
      match word with
      | [] -> ()
      | x :: _ -> (
          let xi = intern t.syms x in
          match find_kid node.kids xi with
          | None -> node.kids <- insert_sorted (fresh_leaf word outs) node.kids
          | Some kid -> in_edge node kid 0 word outs)
    and in_edge parent kid j word outs =
      if j = Array.length kid.path then at_node kid word outs
      else
        match (word, outs) with
        | [], [] -> ()
        | x :: word', o :: outs' ->
            let xi = intern t.syms x in
            if xi = kid.path.(j) then begin
              if intern t.outs o <> kid.pouts.(j) then conflict ();
              in_edge parent kid (j + 1) word' outs'
            end
            else begin
              (* Diverges mid-edge: split, then branch off the head. *)
              let head = split t parent kid j in
              head.kids <- insert_sorted (fresh_leaf word outs) head.kids
            end
        | _ -> assert false
    in
    at_node t.root word outputs

  let lookup t word =
    let rec at_node node word acc =
      match word with
      | [] -> Some (List.rev acc)
      | x :: _ -> (
          match find_kid node.kids (id_of t.syms x) with
          | None -> None
          | Some kid -> in_edge kid 0 word acc)
    and in_edge kid j word acc =
      if j = Array.length kid.path then at_node kid word acc
      else
        match word with
        | [] -> Some (List.rev acc)
        | x :: word' ->
            if id_of t.syms x = Array.unsafe_get kid.path j then
              in_edge kid (j + 1) word'
                (t.outs.arr.(Array.unsafe_get kid.pouts j) :: acc)
            else None
    in
    at_node t.root word []

  let size t = t.prefixes + 1
  let compacted_nodes t = t.phys

  (* Maximal cached words: the trie's leaves. Every inserted word is a
     prefix of some leaf word (insert fills outputs along the whole
     path), so re-inserting the leaves rebuilds the trie exactly. The
     order is canonical: depth-first with siblings sorted by their
     actual first symbol, not its interned id (ids depend on insertion
     history), so the dump is a function of the cached word set alone
     and dump/restore round-trips byte-identically, even for dumps
     written by the pre-compaction implementation in hash-table
     order. *)
  let dump t =
    let acc = ref [] in
    let rec go node rev_in rev_out =
      match node.kids with
      | [] ->
          if rev_in <> [] then
            acc := (List.rev rev_in, List.rev rev_out) :: !acc
      | kids ->
          let kids =
            List.sort
              (fun a b -> compare t.syms.arr.(a.path.(0)) t.syms.arr.(b.path.(0)))
              kids
          in
          List.iter
            (fun k ->
              let ri = ref rev_in and ro = ref rev_out in
              for j = 0 to Array.length k.path - 1 do
                ri := t.syms.arr.(k.path.(j)) :: !ri;
                ro := t.outs.arr.(k.pouts.(j)) :: !ro
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

(* --- Sharded store ---------------------------------------------------

   K tries keyed by the first symbol's hash (see the interface), each
   with a mutex taken only on insert. Lookups are optimistic: combined
   with the publication-safe [Trie.insert] above (reachable nodes are
   never mutated into inconsistent states, and every id a reachable
   node holds was interned before the node was linked in), a racing
   reader can at worst observe a stale-but-consistent trie — and the
   shard's generation check rejects even that before the answer
   escapes. *)

module Sharded = struct
  type ('i, 'o) shard = {
    trie : ('i, 'o) Trie.t;
    lock : Mutex.t;
    gen : int Atomic.t; (* odd while an insert is in flight *)
    g_sh_nodes : float ref; (* cache.shard.nodes{shard=..} *)
  }

  type ('i, 'o) t = { shards : ('i, 'o) shard array }

  let create ?(shards = 8) () =
    if shards < 1 then invalid_arg "Cache.Sharded.create: shards must be >= 1";
    let mk i =
      let l = [ ("shard", string_of_int i) ] in
      {
        trie = Trie.create ();
        lock = Mutex.create ();
        gen = Atomic.make 0;
        g_sh_nodes = Metrics.gauge_l Metrics.default "cache.shard.nodes" l;
      }
    in
    { shards = Array.init shards mk }

  let shards t = Array.length t.shards

  let shard t word =
    match word with
    | [] -> t.shards.(0)
    | x :: _ -> t.shards.(Hashtbl.hash x land max_int mod Array.length t.shards)

  let locked s f =
    Mutex.lock s.lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock s.lock) f

  let insert t word outs =
    let s = shard t word in
    locked s (fun () ->
        Atomic.incr s.gen;
        Fun.protect
          ~finally:(fun () -> Atomic.incr s.gen)
          (fun () -> Trie.insert s.trie word outs);
        Metrics.set s.g_sh_nodes (float_of_int (Trie.size s.trie)))

  (* Optimistic read: lock-free thanks to publication-safe inserts, but
     any overlap with a writer (generation moved, or odd at the start)
     voids the attempt — fall back to the mutex. An exception from [f]
     propagates: the read section cannot raise on a consistent trie, so
     one that does is a bug to surface, not a race to retry. *)
  let read s f =
    let g = Atomic.get s.gen in
    if g land 1 = 1 then locked s f
    else
      let v = f () in
      if Atomic.get s.gen = g then v else locked s f

  let lookup t word =
    let s = shard t word in
    read s (fun () -> Trie.lookup s.trie word)

  (* Counts include the root once across all shards, matching the
     unsharded accounting (each shard's trie counts its own root). *)
  let total f t = Array.fold_left (fun acc s -> acc + f s.trie - 1) 1 t.shards
  let size t = total Trie.size t
  let compacted_nodes t = total Trie.compacted_nodes t

  (* The unsharded canonical dump is a symbol-sorted DFS, i.e. the
     maximal cached words in lexicographic symbol order; shards
     partition words by first symbol, so sorting the concatenation of
     the per-shard canonical dumps restores exactly that order —
     byte-identical to the dump of one trie holding every word. *)
  let dump t =
    Array.to_list t.shards
    |> List.concat_map (fun s -> Trie.dump s.trie)
    |> List.sort (fun (a, _) (b, _) -> compare a b)
end

(* --- the store interface --------------------------------------------

   A cache value is a view over one of the two stores: a private trie,
   or a shared {!Sharded} cache. Hit/miss tallies belong to the view,
   so a fleet session's counts describe its own traffic even though
   the answers are pooled. *)

type ('i, 'o) store = Trie of ('i, 'o) Trie.t | Shared of ('i, 'o) Sharded.t

type ('i, 'o) t = {
  store : ('i, 'o) store;
  mutable hits : int;
  mutable misses : int;
}

let create () = { store = Trie (Trie.create ()); hits = 0; misses = 0 }
let shared s = { store = Shared s; hits = 0; misses = 0 }

(* Sharded stores keep per-shard gauges of their own. *)
let insert t word outs =
  match t.store with
  | Trie x ->
      Trie.insert x word outs;
      Metrics.set g_nodes (float_of_int (Trie.size x));
      Metrics.set g_trie_nodes (float_of_int (Trie.compacted_nodes x))
  | Shared s -> Sharded.insert s word outs

let lookup t word =
  match t.store with
  | Trie x -> Trie.lookup x word
  | Shared s -> Sharded.lookup s word

let size t =
  match t.store with Trie x -> Trie.size x | Shared s -> Sharded.size s

let compacted_nodes t =
  match t.store with
  | Trie x -> Trie.compacted_nodes x
  | Shared s -> Sharded.compacted_nodes s

let dump t =
  match t.store with Trie x -> Trie.dump x | Shared s -> Sharded.dump s

let restore t words = List.iter (fun (w, outs) -> insert t w outs) words
let hits t = t.hits
let misses t = t.misses

let find t word =
  let answer = lookup t word in
  (match answer with
  | Some _ ->
      t.hits <- t.hits + 1;
      Metrics.inc m_hits
  | None ->
      t.misses <- t.misses + 1;
      Metrics.inc m_misses);
  answer

let wrap t (mq : ('i, 'o) Oracle.membership) =
  (* A miss replays the full word and records it; [insert] raises
     [Conflict] when the fresh outputs contradict a cached prefix, which
     is the nondeterminism check. *)
  let ask word =
    match find t word with
    | Some answer -> answer
    | None ->
        let answer = mq.ask word in
        insert t word answer;
        answer
  in
  { mq with Oracle.ask; ask_batch = None }
