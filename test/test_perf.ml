(* The compiled-hot-path invariants behind the CI perf gate: packed
   stepping agrees with the functional reference on arbitrary machines,
   the compacted trie cache round-trips through the checkpoint format
   byte-identically (from a private or a shared store), the sharded
   equivalence oracle produces the same model as a sequential run, and
   one QUIC and one DTLS SUL query and one TCP golden learn stay within
   their allocation budgets. These run under the @perf alias, next to
   the counter gate in CI. *)

module Mealy = Prognosis_automata.Mealy
module Cache = Prognosis_learner.Cache
module Oracle = Prognosis_learner.Oracle
module Metrics = Prognosis_obs.Metrics
module Engine = Prognosis_exec.Engine
module Quic_alphabet = Prognosis_quic.Quic_alphabet
module Quic_profile = Prognosis_quic.Quic_profile
module Sul = Prognosis_sul.Sul
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

(* The physical probe finds exactly what a structural lookup finds:
   for the alphabet's own values, for structurally equal copies, and
   for unknown symbols; alphabets past the probe's 32-symbol scan go
   straight to the structural fallback. *)
let prop_input_index =
  QCheck2.Test.make ~count:200 ~name:"input_index == structural lookup"
    QCheck2.Gen.(
      pair (int_range 1 40) (list_size (int_range 1 20) (pair (int_bound 2) (int_bound 45))))
    (fun (n, probes) ->
      let inputs = Array.init n (fun i -> "s" ^ string_of_int i) in
      let m =
        Mealy.make ~size:1 ~initial:0 ~inputs ~delta:[| Array.make n 0 |]
          ~lambda:[| Array.make n "o" |]
      in
      List.for_all
        (fun (kind, i) ->
          let x =
            match kind with
            | 0 when i < n -> inputs.(i)
            | 1 -> Bytes.to_string (Bytes.of_string ("s" ^ string_of_int i))
            | _ -> "u" ^ string_of_int i
          in
          let structural =
            let rec find j = if j = n then None else if inputs.(j) = x then Some j else find (j + 1) in
            find 0
          in
          let position f = match f x with j -> Some j | exception Not_found -> None in
          position (Mealy.input_index m) = structural)
        probes)

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

(* Random interleavings of inserts and lookups against a reference
   table of every cached prefix. The alphabet's ids are handed out in a
   shuffled order before the first word, so a node meets its children's
   ids out of order (its child array grows) and later words diverge in
   the middle of compressed edges (they split). Outputs come from a
   fixed machine with some corrupted, so inserts also conflict. An
   insert must raise [Conflict i] exactly when the reference holds the
   word's prefix of length [i + 1] with another last output (the first
   such [i]), leaving the cache unchanged; otherwise it caches every
   prefix. Run on a private trie and on a view of a shared store. *)
type trie_op = Insert of int list * int list | Lookup of int list

let gen_trie_ops =
  let open QCheck2.Gen in
  let m =
    Mealy.of_fun ~size:5 ~initial:0 ~inputs:(Array.init 8 Fun.id)
      ~step:(fun s i -> ((s + i + 1) mod 5, (s * 8) + i))
  in
  let word = list_size (int_range 0 8) (int_range 0 7) in
  let op =
    frequency
      [
        ( 3,
          pair word (int_range 0 9) >>= fun (w, flip) ->
          (* flip < length corrupts the output at that position *)
          let o = List.mapi (fun i x -> if i = flip then x + 100 else x) (Mealy.run m w) in
          return (Insert (w, o)) );
        (2, map (fun w -> Lookup w) word);
      ]
  in
  pair (shuffle_l (List.init 8 Fun.id)) (list_size (int_range 1 120) op)

let rec prefixes acc = function
  | [], [] -> List.rev acc
  | x :: w, y :: o ->
      let pw, po = match acc with [] -> ([], []) | (pw, po) :: _ -> (pw, po) in
      prefixes ((pw @ [ x ], po @ [ y ]) :: acc) (w, o)
  | _ -> invalid_arg "prefixes"

let prop_trie_reference =
  QCheck2.Test.make ~count:300
    ~name:"trie == reference table under inserts and lookups" gen_trie_ops
    (fun (order, ops) ->
      List.for_all
        (fun (fresh : unit -> (int, int) Cache.t) ->
          let c = fresh () in
          List.iter (fun x -> ignore (Oracle.Coder.intern (Cache.inputs c) x)) order;
          let table = Hashtbl.create 64 in
          let agrees = function
            | Lookup w ->
                let expected =
                  if w = [] then Some [] else Hashtbl.find_opt table w
                in
                Cache.lookup c w = expected
            | Insert (w, o) -> (
                let ps = prefixes [] (w, o) in
                let conflict =
                  List.find_mapi
                    (fun i (pw, po) ->
                      match Hashtbl.find_opt table pw with
                      | Some cached when cached <> po -> Some i
                      | _ -> None)
                    ps
                in
                match (conflict, Cache.insert c w o) with
                | None, () ->
                    List.iter (fun (pw, po) -> Hashtbl.replace table pw po) ps;
                    true
                | Some _, () -> false
                | exception Cache.Conflict i -> conflict = Some i)
          in
          List.for_all agrees ops
          && Cache.size c = Hashtbl.length table + 1
          && Cache.compacted_nodes c <= Cache.size c
          && Hashtbl.fold (fun w o ok -> ok && Cache.lookup c w = Some o) table true
          &&
          let d = Cache.dump c in
          let c' = Cache.create () in
          Cache.restore c' d;
          Cache.dump c' = d && Cache.size c' = Cache.size c)
        [ Cache.create; (fun () -> Cache.shared (Cache.Shared.create ())) ])

(* --- shared store == private trie --- *)

(* Random prefix-consistent word sets (answered by a fixed machine,
   like [consistent_queries]) dumped through a view of a
   [Cache.Shared] store must be byte-identical to a private trie's
   canonical dump of the same words — that is what lets a fleet
   checkpoint interchange with a solo one. *)
let gen_word_set =
  let open QCheck2.Gen in
  let m =
    Mealy.of_fun ~size:6 ~initial:0 ~inputs:[| 0; 1; 2; 3 |] ~step:(fun s i ->
        ((s + (2 * i) + 1) mod 6, (s * 5) + i))
  in
  list_size (int_range 0 80)
    (list_size (int_range 0 10) (int_range 0 3))
  >>= fun words -> return (List.map (fun w -> (w, Mealy.run m w)) words)

let prop_shared_dump_canonical =
  QCheck2.Test.make ~count:60 ~name:"shared dump == private trie dump"
    gen_word_set (fun qs ->
      let flat = Cache.create () in
      List.iter (fun (w, o) -> Cache.insert flat w o) qs;
      let store = Cache.Shared.create () in
      let view = Cache.shared store in
      List.iter (fun (w, o) -> Cache.insert view w o) qs;
      Cache.dump view = Cache.dump flat
      && Cache.Shared.size store = Cache.size flat
      && List.for_all (fun (w, o) -> Cache.lookup view w = Some o) qs)

(* Four domains hammering the same shared store, each through its own
   view: two inserting disjoint prefix-consistent sets (and coding new
   symbols into the shared coders at once), two doing optimistic
   lookups the whole time. Every lookup that returns must return the
   machine's answer (the seqlock may retry but never tears), and the
   final dump equals a sequential insert of everything. *)
let shared_stress_four_domains () =
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
  let cache = Cache.Shared.create () in
  let torn = Atomic.make 0 and looked = Atomic.make 0 in
  let inserter batch () =
    let view = Cache.shared cache in
    List.iter (fun w -> Cache.insert view w (answers w)) batch
  in
  let prober batch () =
    let view = Cache.shared cache in
    for _ = 1 to 30 do
      List.iter
        (fun w ->
          match Cache.lookup view w with
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
    (Cache.dump (Cache.shared cache) = Cache.dump sequential)

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

(* --- allocation budget of the simulated stacks --- *)

(* Minor words of one warm SUL query. A query runs the reference
   client, the network and the server for every datagram, so a
   per-packet regression (a memo that stops hitting, a copy put back
   into a codec) fails here instead of only slowing the benchmark:
   keying the QUIC client's reset-token memo by physical equality adds
   about 400 words to the handshake query, beyond its 25% margin. The
   budgets are 1.25x the figures measured when they were set (QUIC
   handshake 1451 words, DTLS scenario 1451 words; OCaml 5.1, dune's
   default profile). *)
let warm_minor_words sul word =
  ignore (Sul.query sul word);
  let before = Gc.minor_words () in
  ignore (Sul.query sul word);
  Gc.minor_words () -. before

let check_budget name budget words =
  if words > budget then
    Alcotest.failf "%s: %.0f minor words per query, budget %.0f" name words
      budget

let quic_handshake_budget () =
  check_budget "QUIC handshake" (1.25 *. 1451.)
    (warm_minor_words
       (Prognosis_quic.Quic_adapter.sul ~seed:1L ())
       Quic_alphabet.[ Initial_crypto; Handshake_ack_crypto ])

let dtls_scenario_budget () =
  check_budget "DTLS scenario" (1.25 *. 1451.)
    (warm_minor_words
       (Prognosis_dtls.Dtls_adapter.sul ~seed:1L ())
       (List.hd Dtls_study.scenarios))

(* Minor words of one warm TTT learn of the tcp golden through a fresh
   engine: the golden as a table SUL, the study's W-method + random eq
   oracle. Everything above the SUL allocates here — learner queries,
   suite generation, cache walks, planning — so words decoded back into
   symbol lists on the way fail it, and so does a cache miss that
   allocates again. The budget is 1.25x the figure measured when it was
   set: 158943 words with W/Wp suites built by the trie builder, against
   179943 when suites were appended out and deduplicated through a hash
   table, 260634 before array-indexed trie children, allocation-free
   misses, uncopied coded words and no rebuilt hypothesis in
   refinement, and 405415 when learner, suites and engine traded symbol
   lists (OCaml 5.1, dune's default profile). *)
let golden file kind =
  let path =
    List.find Sys.file_exists
      [ "../examples/golden/" ^ file; "examples/golden/" ^ file ]
  in
  match Persist.load_text ~path kind with
  | Ok m -> m
  | Error e -> Alcotest.fail (Persist.load_error_to_string e)

let tcp_learn_words () =
  let model = golden "tcp.model" Persist.Tcp_model in
  let d = Protocol.strings (Tcp_study.protocol ()) in
  let learn () =
    let engine = Engine.create ~factory:(fun _ -> Sul.of_mealy model) () in
    ignore
      (Prognosis_learner.Learn.run_mq
         ~cache_stats:(fun () -> Engine.cache_stats engine)
         ~inputs:(Mealy.inputs model) ~mq:(Engine.membership engine)
         ~eq:(Protocol.eq_oracle d ~seed:1L) ())
  in
  learn ();
  let before = Gc.minor_words () in
  learn ();
  Gc.minor_words () -. before

let tcp_learn_budget () =
  check_budget "TCP learn" (1.25 *. 158943.) (tcp_learn_words ())

(* Minor words of one warm W-method suite (one extra state) on each
   golden: the words kept, their list, and the cover and characterizing
   set it starts from. Appending each candidate out in full and
   deduplicating through a hash table, as suites were built before the
   trie builder, costs 16966 / 38338 / 30976 words on tcp / quic /
   dtls and fails here. The budgets are 1.25x the figures measured when
   they were set (OCaml 5.1, dune's default profile). *)
let suite_words model =
  let suite () =
    Prognosis_automata.Testing.w_method_ids ~extra_states:1 model
  in
  ignore (suite ());
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (suite ()));
  Gc.minor_words () -. before

let suite_budgets () =
  List.iter
    (fun (name, file, kind, words) ->
      check_budget name (1.25 *. words) (suite_words (golden file kind)))
    [
      ("tcp W-method suite", "tcp.model", Persist.Tcp_model, 11195.);
      ( "quic W-method suite",
        "quic-quiche-like.model",
        Persist.Quic_model,
        25186. );
      ("dtls W-method suite", "dtls.model", Persist.Dtls_model, 20003.);
    ]

let () =
  Alcotest.run "perf"
    [
      ( "packed",
        [
          QCheck_alcotest.to_alcotest prop_packed_equals_reference;
          QCheck_alcotest.to_alcotest prop_packed_run_from;
          QCheck_alcotest.to_alcotest prop_input_index;
        ] );
      ( "trie",
        [
          Alcotest.test_case "dump/restore round-trip" `Quick
            trie_dump_restore_roundtrip;
          Alcotest.test_case "old-format order" `Quick
            trie_restores_old_format_order;
          QCheck_alcotest.to_alcotest prop_trie_reference;
        ] );
      ( "shared",
        [
          QCheck_alcotest.to_alcotest prop_shared_dump_canonical;
          Alcotest.test_case "4-domain stress" `Slow
            shared_stress_four_domains;
        ] );
      ( "alloc",
        [
          Alcotest.test_case "QUIC handshake query" `Quick
            quic_handshake_budget;
          Alcotest.test_case "DTLS scenario query" `Quick dtls_scenario_budget;
          Alcotest.test_case "TCP golden learn" `Quick tcp_learn_budget;
          Alcotest.test_case "W-method suites" `Quick suite_budgets;
        ] );
      (* The longest group name sets the column Alcotest truncates case
         names to; "eq-sharding" keeps it at 11 characters, so the
         printed names of the other cases stay as they were. *)
      ( "eq-sharding",
        [
          Alcotest.test_case "byte-identical model" `Slow pooled_eq_identical;
        ] );
    ]
