(* The compiled-hot-path invariants behind the CI perf gate: packed
   stepping agrees with the functional reference on arbitrary machines,
   the compacted trie cache round-trips through the checkpoint format
   byte-identically, and the sharded equivalence oracle produces the
   same model as a sequential run. These run under the @perf alias,
   next to the counter gate in CI. *)

module Mealy = Prognosis_automata.Mealy
module Cache = Prognosis_learner.Cache
module Metrics = Prognosis_obs.Metrics
module Engine = Prognosis_exec.Engine
module Quic_alphabet = Prognosis_quic.Quic_alphabet
module Quic_profile = Prognosis_quic.Quic_profile
open Prognosis

(* --- packed stepping == functional stepping --- *)

let gen_machine_and_words =
  let open QCheck2.Gen in
  int_range 1 8 >>= fun size ->
  int_range 1 4 >>= fun k ->
  let state = int_range 0 (size - 1) in
  array_size (return size) (array_size (return k) state) >>= fun delta ->
  array_size (return size) (array_size (return k) (int_range 0 5))
  >>= fun lambda ->
  state >>= fun initial ->
  list_size (int_range 1 20) (list_size (int_range 0 15) (int_range 0 (k - 1)))
  >>= fun words ->
  let m =
    Mealy.make ~size ~initial ~inputs:(Array.init k Fun.id) ~delta ~lambda
  in
  return (m, words)

let prop_packed_equals_reference =
  QCheck2.Test.make ~count:300 ~name:"packed stepping == functional reference"
    gen_machine_and_words (fun (m, words) ->
      List.for_all
        (fun w ->
          Mealy.run m w = Mealy.run_reference m w
          && Mealy.state_after m w
             = List.fold_left (fun s i -> fst (Mealy.step m s i)) (Mealy.initial m) w)
        words)

let prop_packed_run_from =
  QCheck2.Test.make ~count:200 ~name:"packed run_from == reference from any state"
    gen_machine_and_words (fun (m, words) ->
      List.for_all
        (fun w ->
          let s = Mealy.state_after m w in
          List.for_all
            (fun w' -> Mealy.run_from m s w' = Mealy.run_reference_from m s w')
            words)
        words)

(* --- compacted trie preserves the checkpoint dump format --- *)

(* Words answered by a fixed machine so the query set is
   prefix-consistent, as real membership answers are. *)
let consistent_queries seed =
  let rng = Prognosis_sul.Rng.create seed in
  let m =
    Mealy.of_fun ~size:5 ~initial:0 ~inputs:[| 0; 1; 2 |] ~step:(fun s i ->
        ((s + i + 1) mod 5, (s * 3) + i))
  in
  List.init 60 (fun _ ->
      let len = 1 + Prognosis_sul.Rng.int rng 8 in
      let w = List.init len (fun _ -> Prognosis_sul.Rng.int rng 3) in
      (w, Mealy.run m w))

let trie_dump_restore_roundtrip () =
  let qs = consistent_queries 11L in
  let c1 = Cache.create () in
  List.iter (fun (w, o) -> Cache.insert c1 w o) qs;
  let d1 = Cache.dump c1 in
  let c2 = Cache.create () in
  Cache.restore c2 d1;
  Alcotest.(check bool) "dump . restore . dump is the identity" true
    (Cache.dump c2 = d1);
  Alcotest.(check int) "same entry count" (Cache.size c1) (Cache.size c2);
  Alcotest.(check bool) "trie is compacted" true (Cache.compacted_nodes c2 > 0)

let trie_restores_old_format_order () =
  let qs = consistent_queries 12L in
  (* a checkpoint written by the pre-trie cache carries entries in
     arbitrary (hash-table) order: interleave halves to simulate it *)
  let c1 = Cache.create () in
  List.iter (fun (w, o) -> Cache.insert c1 w o) qs;
  let d = Cache.dump c1 in
  let rec interleave = function
    | [], ys -> ys
    | xs, [] -> xs
    | x :: xs, y :: ys -> x :: y :: interleave (xs, ys)
  in
  let half = List.length d / 2 in
  let scrambled =
    interleave (List.filteri (fun i _ -> i >= half) d,
                List.rev (List.filteri (fun i _ -> i < half) d))
  in
  let c2 = Cache.create () in
  Cache.restore c2 scrambled;
  List.iter
    (fun (w, o) ->
      match Cache.lookup c2 w with
      | Some o' -> Alcotest.(check bool) "restored answer" true (o = o')
      | None -> Alcotest.fail "entry lost restoring an out-of-order dump")
    qs;
  Alcotest.(check bool) "canonical dump independent of input order" true
    (Cache.dump c2 = d)

(* --- sharded cache == one trie, under any shard count --- *)

(* Random prefix-consistent word sets (answered by a fixed machine,
   like [consistent_queries]) dumped from a [Cache.Sharded] must be
   byte-identical to the unsharded canonical dump — that is what lets
   a fleet checkpoint interchange with a solo one. *)
let gen_word_set =
  let open QCheck2.Gen in
  let m =
    Mealy.of_fun ~size:6 ~initial:0 ~inputs:[| 0; 1; 2; 3 |] ~step:(fun s i ->
        ((s + (2 * i) + 1) mod 6, (s * 5) + i))
  in
  list_size (int_range 0 80)
    (list_size (int_range 0 10) (int_range 0 3))
  >>= fun words -> return (List.map (fun w -> (w, Mealy.run m w)) words)

let prop_sharded_dump_canonical =
  QCheck2.Test.make ~count:60
    ~name:"Sharded.dump == unsharded dump for K in {1,4,8}"
    gen_word_set (fun qs ->
      let flat = Cache.create () in
      List.iter (fun (w, o) -> Cache.insert flat w o) qs;
      let reference = Cache.dump flat in
      List.for_all
        (fun k ->
          let sharded = Cache.Sharded.create ~shards:k () in
          List.iter (fun (w, o) -> Cache.Sharded.insert sharded w o) qs;
          Cache.Sharded.dump sharded = reference
          && Cache.Sharded.size sharded = Cache.size flat
          && List.for_all
               (fun (w, o) -> Cache.Sharded.lookup sharded w = Some o)
               qs)
        [ 1; 4; 8 ])

(* Four domains hammering the same sharded cache: two inserting
   disjoint prefix-consistent sets, two doing optimistic lookups the
   whole time. Every lookup that returns must return the machine's
   answer (the seqlock may retry but never tears), and the final dump
   equals a sequential insert of everything. *)
let sharded_stress_four_domains () =
  let m =
    Mealy.of_fun ~size:7 ~initial:0 ~inputs:[| 0; 1; 2; 3; 4 |]
      ~step:(fun s i -> ((s + i + 2) mod 7, (s * 7) + (2 * i)))
  in
  let answers w = Mealy.run m w in
  let words_of seed n =
    let rng = Prognosis_sul.Rng.create seed in
    List.init n (fun _ ->
        let len = 1 + Prognosis_sul.Rng.int rng 9 in
        List.init len (fun _ -> Prognosis_sul.Rng.int rng 5))
  in
  let batch_a = words_of 31L 400 and batch_b = words_of 32L 400 in
  let cache = Cache.Sharded.create ~shards:8 () in
  let torn = Atomic.make 0 and looked = Atomic.make 0 in
  let inserter batch () =
    List.iter (fun w -> Cache.Sharded.insert cache w (answers w)) batch
  in
  let prober batch () =
    for _ = 1 to 30 do
      List.iter
        (fun w ->
          match Cache.Sharded.lookup cache w with
          | Some o ->
              Atomic.incr looked;
              if o <> answers w then Atomic.incr torn
          | None -> ())
        batch
    done
  in
  let ds =
    List.map Domain.spawn
      [ inserter batch_a; prober batch_b; inserter batch_b; prober batch_a ]
  in
  List.iter Domain.join ds;
  Alcotest.(check int) "no lookup ever tore" 0 (Atomic.get torn);
  Alcotest.(check bool) "probers saw published entries" true
    (Atomic.get looked > 0);
  let sequential = Cache.create () in
  List.iter
    (fun w -> Cache.insert sequential w (answers w))
    (batch_a @ batch_b);
  Alcotest.(check bool) "dump == sequential insert of both batches" true
    (Cache.Sharded.dump cache = Cache.dump sequential)

(* --- pooled, batched equivalence testing is deterministic --- *)

let canonical_text (model, _) =
  Persist.text_of_model ~kind:Persist.Quic_model
    ~input_to_string:Quic_alphabet.to_string
    ~output_to_string:Quic_alphabet.output_to_string model

let pooled_eq_identical () =
  let profile = Quic_profile.quiche_like in
  let sequential = Protocol.learn ~seed:5L (Quic_study.protocol profile) in
  let shards = Metrics.counter Metrics.default "eq.shards" in
  let before = !shards in
  let config = { Engine.default with Engine.workers = 4; batch = true } in
  let pooled =
    Protocol.learn ~seed:5L ~exec:config (Quic_study.protocol profile)
  in
  Alcotest.(check string) "byte-identical canonical model"
    (canonical_text sequential) (canonical_text pooled);
  Alcotest.(check bool) "suite was sharded" true (!shards > before);
  Alcotest.(check int) "same state count"
    (snd sequential).Report.states
    (snd pooled).Report.states

let () =
  Alcotest.run "perf"
    [
      ( "packed",
        [
          QCheck_alcotest.to_alcotest prop_packed_equals_reference;
          QCheck_alcotest.to_alcotest prop_packed_run_from;
        ] );
      ( "trie",
        [
          Alcotest.test_case "dump/restore round-trip" `Quick
            trie_dump_restore_roundtrip;
          Alcotest.test_case "old-format order" `Quick
            trie_restores_old_format_order;
        ] );
      ( "sharded",
        [
          QCheck_alcotest.to_alcotest prop_sharded_dump_canonical;
          Alcotest.test_case "4-domain stress" `Slow
            sharded_stress_four_domains;
        ] );
      (* The longest group name sets the column Alcotest truncates case
         names to; "eq-sharding" keeps it at 11 characters, so the
         printed names of the other cases stay as they were. *)
      ( "eq-sharding",
        [
          Alcotest.test_case "byte-identical model" `Slow pooled_eq_identical;
        ] );
    ]
