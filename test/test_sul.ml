module Rng = Prognosis_sul.Rng
module Network = Prognosis_sul.Network
module Sul = Prognosis_sul.Sul
module Nondet = Prognosis_sul.Nondet
module Adapter = Prognosis_sul.Adapter
module Oracle_table = Prognosis_sul.Oracle_table
module Mealy = Prognosis_automata.Mealy

(* --- rng --- *)

let rng_deterministic () =
  let a = Rng.create 42L and b = Rng.create 42L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.next64 a) (Rng.next64 b)
  done

let rng_seed_sensitivity () =
  let a = Rng.create 42L and b = Rng.create 43L in
  Alcotest.(check bool) "different streams" false (Rng.next64 a = Rng.next64 b)

let rng_copy_independent () =
  let a = Rng.create 7L in
  ignore (Rng.next64 a);
  let b = Rng.copy a in
  Alcotest.(check int64) "copy continues identically" (Rng.next64 a) (Rng.next64 b)

let rng_split_independent () =
  let a = Rng.create 7L in
  let child = Rng.split a in
  (* Parent advanced; child produces a different stream. *)
  Alcotest.(check bool) "diverged" false (Rng.next64 a = Rng.next64 child)

let rng_split_reproducible () =
  (* Splitting is a pure function of the parent's state: the same seed
     yields the same child streams, run after run. *)
  let streams seed =
    let parent = Rng.create seed in
    Array.to_list (Rng.split_n parent 4)
    |> List.map (fun r -> List.init 5 (fun _ -> Rng.next64 r))
  in
  Alcotest.(check (list (list int64)))
    "same seed, same streams" (streams 42L) (streams 42L)

let rng_split_n_pairwise_different () =
  let parent = Rng.create 9L in
  let children = Rng.split_n parent 8 in
  let firsts = Array.map (fun r -> List.init 4 (fun _ -> Rng.next64 r)) children in
  Array.iteri
    (fun i a ->
      Array.iteri
        (fun j b ->
          if i < j && a = b then
            Alcotest.failf "children %d and %d share a stream" i j)
        firsts)
    firsts

let rng_int_bounds () =
  let rng = Rng.create 3L in
  for _ = 1 to 1000 do
    let v = Rng.int rng 17 in
    if v < 0 || v >= 17 then Alcotest.fail "out of bounds"
  done

let rng_int_rejects_nonpositive () =
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int (Rng.create 1L) 0))

let rng_float_range () =
  let rng = Rng.create 5L in
  for _ = 1 to 1000 do
    let f = Rng.float rng in
    if f < 0.0 || f >= 1.0 then Alcotest.fail "float out of [0,1)"
  done

let rng_bool_rate () =
  let rng = Rng.create 11L in
  let hits = ref 0 in
  let n = 20_000 in
  for _ = 1 to n do
    if Rng.bool rng 0.3 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "rate %.3f near 0.3" rate)
    true
    (rate > 0.28 && rate < 0.32)

let rng_bytes_length () =
  let rng = Rng.create 13L in
  Alcotest.(check int) "length" 32 (String.length (Rng.bytes rng 32));
  Alcotest.(check int) "empty" 0 (String.length (Rng.bytes rng 0))

(* Known answers: the first draws of each kind for two seeds, in one
   sequence per seed (next64, int, bytes 8, hex 8, then a split child's
   first draw and the parent's next). Every simulated nonce, cid and
   random comes from these, so any change to the generator's state
   handling must reproduce them exactly. *)
let rng_known_answers () =
  let hex s =
    String.concat ""
      (List.init (String.length s) (fun i -> Printf.sprintf "%02x" (Char.code s.[i])))
  in
  List.iter
    (fun (seed, next, int, bytes, hex8, child, parent) ->
      let name what = Printf.sprintf "seed %Ld: %s" seed what in
      let t = Rng.create seed in
      Alcotest.(check int64) (name "next64") next (Rng.next64 t);
      Alcotest.(check int) (name "int 1_000_000") int (Rng.int t 1_000_000);
      Alcotest.(check string) (name "bytes 8") bytes (hex (Rng.bytes t 8));
      Alcotest.(check string) (name "hex 8") hex8 (Rng.hex t 8);
      let c = Rng.split t in
      Alcotest.(check int64) (name "split child") child (Rng.next64 c);
      Alcotest.(check int64) (name "parent after split") parent (Rng.next64 t))
    [
      ( 1L, -7995527694508729151L, 607129, "5e0bb980a575a896", "61fec08aa83b63f1",
        2222403098603451588L, -2133835171996146424L );
      ( 12345L, 2454886589211414944L, 331899, "1dcaeb2e421c17cf",
        "8516645510b61c1e", -5083100576392604111L, 6938261716188683755L );
    ]

let prop_rng_int_covers =
  QCheck2.Test.make ~count:50 ~name:"rng int eventually covers small ranges"
    QCheck2.Gen.(int_range 2 8)
    (fun n ->
      let rng = Rng.create 99L in
      let seen = Array.make n false in
      for _ = 1 to 1000 do
        seen.(Rng.int rng n) <- true
      done;
      Array.for_all (fun b -> b) seen)

(* --- network --- *)

let network_reliable_passthrough () =
  let ch = Network.create (Rng.create 1L) in
  Alcotest.(check (list string)) "delivered" [ "payload" ]
    (Network.transmit ch "payload");
  Alcotest.(check int) "counted" 1 (Network.transmitted ch);
  Alcotest.(check int) "no drops" 0 (Network.dropped ch)

let network_loss_rate () =
  let ch = Network.create ~config:(Network.lossy 0.25) (Rng.create 2L) in
  for _ = 1 to 4000 do
    ignore (Network.transmit ch "x")
  done;
  let rate = float_of_int (Network.dropped ch) /. 4000.0 in
  Alcotest.(check bool)
    (Printf.sprintf "loss rate %.3f near 0.25" rate)
    true
    (rate > 0.22 && rate < 0.28)

let network_duplication () =
  let ch =
    Network.create
      ~config:{ Network.reliable with Network.duplicate = 1.0 }
      (Rng.create 3L)
  in
  Alcotest.(check (list string)) "duplicated" [ "x"; "x" ] (Network.transmit ch "x")

let network_corruption_changes_payload () =
  let ch =
    Network.create
      ~config:{ Network.reliable with Network.corrupt = 1.0 }
      (Rng.create 4L)
  in
  match Network.transmit ch "hello" with
  | [ delivered ] ->
      Alcotest.(check bool) "changed" false (delivered = "hello");
      Alcotest.(check int) "same length" 5 (String.length delivered)
  | _ -> Alcotest.fail "expected one delivery"

let network_corruption_empty_payload () =
  let ch =
    Network.create
      ~config:{ Network.reliable with Network.corrupt = 1.0 }
      (Rng.create 5L)
  in
  Alcotest.(check (list string)) "empty survives" [ "" ] (Network.transmit ch "")

let network_reconfigure () =
  let ch = Network.create (Rng.create 6L) in
  Network.set_config ch (Network.lossy 1.0);
  Alcotest.(check (list string)) "all lost" [] (Network.transmit ch "x")

(* --- inet (IPv4/UDP encapsulation) --- *)

module Inet = Prognosis_sul.Inet

let ipv4_roundtrip () =
  let t =
    { Inet.Ipv4.src = 0x0A000001; dst = 0x0A000002; ttl = 64;
      protocol = Inet.Ipv4.tcp_protocol; payload = "segment-bytes" }
  in
  match Inet.Ipv4.decode (Inet.Ipv4.encode t) with
  | Error e -> Alcotest.fail e
  | Ok t' ->
      Alcotest.(check int) "src" t.Inet.Ipv4.src t'.Inet.Ipv4.src;
      Alcotest.(check int) "dst" t.Inet.Ipv4.dst t'.Inet.Ipv4.dst;
      Alcotest.(check int) "protocol" 6 t'.Inet.Ipv4.protocol;
      Alcotest.(check string) "payload" "segment-bytes" t'.Inet.Ipv4.payload

let ipv4_checksum_detects () =
  let wire =
    Inet.Ipv4.encode
      { Inet.Ipv4.src = 1; dst = 2; ttl = 64; protocol = 6; payload = "x" }
  in
  let flipped =
    String.mapi (fun i c -> if i = 13 then Char.chr (Char.code c lxor 1) else c) wire
  in
  match Inet.Ipv4.decode flipped with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "corrupted IPv4 header must be rejected"

let udp_roundtrip () =
  let src_ip = 0x0A000001 and dst_ip = 0x0A000002 in
  let wire =
    Inet.Udp.encode ~src_ip ~dst_ip
      { Inet.Udp.src_port = 50123; dst_port = 443; payload = "quic" }
  in
  match Inet.Udp.decode ~src_ip ~dst_ip wire with
  | Error e -> Alcotest.fail e
  | Ok u ->
      Alcotest.(check int) "src port" 50123 u.Inet.Udp.src_port;
      Alcotest.(check string) "payload" "quic" u.Inet.Udp.payload

let udp_pseudo_header_binds_addresses () =
  (* The same datagram fails verification under different addresses:
     the pseudo-header is covered. *)
  let wire =
    Inet.Udp.encode ~src_ip:1 ~dst_ip:2
      { Inet.Udp.src_port = 1; dst_port = 2; payload = "d" }
  in
  match Inet.Udp.decode ~src_ip:9 ~dst_ip:2 wire with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "pseudo-header mismatch must be rejected"

let wrap_unwrap_udp () =
  let wire = Inet.wrap_udp ~src:7 ~dst:8 ~src_port:5555 ~dst_port:443 "payload" in
  (match Inet.unwrap_udp wire with
  | Ok (port, payload) ->
      Alcotest.(check int) "source port surfaces" 5555 port;
      Alcotest.(check string) "payload" "payload" payload
  | Error e -> Alcotest.fail e);
  (* A TCP-wrapped datagram is not UDP. *)
  match Inet.unwrap_udp (Inet.wrap_tcp ~src:7 ~dst:8 "seg") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "protocol mismatch must be rejected"

(* An IPv4 header whose total-length field (7) is below the header
   length, with a valid checksum: decoding must fail with a typed error
   rather than an out-of-range [String.sub]. *)
let ipv4_short_total_length () =
  let wire =
    Bytes.of_string
      (Inet.wrap_udp ~src:0x0A000001 ~dst:0x0A000002 ~src_port:1 ~dst_port:2 "x")
  in
  Bytes.set_uint16_be wire 2 7;
  Bytes.set_uint16_be wire 10 0;
  let sum = ref 0 in
  for i = 0 to 9 do
    sum := !sum + Bytes.get_uint16_be wire (2 * i)
  done;
  while !sum lsr 16 <> 0 do
    sum := (!sum land 0xFFFF) + (!sum lsr 16)
  done;
  Bytes.set_uint16_be wire 10 (lnot !sum land 0xFFFF);
  let wire = Bytes.to_string wire in
  let expect = "ipv4: bad total length" in
  let show = function Ok _ -> "Ok" | Error e -> e in
  Alcotest.(check string) "decode" expect (show (Inet.Ipv4.decode wire));
  Alcotest.(check string) "unwrap_udp" expect (show (Inet.unwrap_udp wire));
  Alcotest.(check string) "unwrap_tcp" expect (show (Inet.unwrap_tcp wire))

(* --- oracle table --- *)

let table_add_find () =
  let t = Oracle_table.create () in
  Oracle_table.add t ~abstract_inputs:[ 'a' ] ~abstract_outputs:[ 1 ]
    ~steps:[ { Oracle_table.sent = [ "p1" ]; received = [ "r1"; "r2" ] } ];
  (match Oracle_table.find t [ 'a' ] with
  | None -> Alcotest.fail "missing"
  | Some e ->
      Alcotest.(check (list string)) "inputs" [ "p1" ] (Oracle_table.concrete_inputs e);
      Alcotest.(check (list string)) "outputs" [ "r1"; "r2" ]
        (Oracle_table.concrete_outputs e));
  Alcotest.(check int) "size" 1 (Oracle_table.size t)

let table_overwrite_keeps_latest () =
  let t = Oracle_table.create () in
  let add word payload =
    Oracle_table.add t ~abstract_inputs:word ~abstract_outputs:[ 0 ]
      ~steps:[ { Oracle_table.sent = [ payload ]; received = [] } ]
  in
  add [ 'a' ] "old";
  add [ 'a' ] "new";
  Alcotest.(check int) "one entry" 1 (Oracle_table.size t);
  match Oracle_table.find t [ 'a' ] with
  | Some e ->
      Alcotest.(check (list string)) "latest wins" [ "new" ]
        (Oracle_table.concrete_inputs e)
  | None -> Alcotest.fail "missing"

let table_entries_in_order () =
  let t = Oracle_table.create () in
  List.iter
    (fun w ->
      Oracle_table.add t ~abstract_inputs:[ w ] ~abstract_outputs:[ 0 ] ~steps:[])
    [ 'a'; 'b'; 'c' ];
  Alcotest.(check (list char)) "insertion order" [ 'a'; 'b'; 'c' ]
    (List.map
       (fun e -> List.hd e.Oracle_table.abstract_inputs)
       (Oracle_table.entries t))

let table_longest_and_clear () =
  let t = Oracle_table.create () in
  Oracle_table.add t ~abstract_inputs:[ 1; 2; 3 ] ~abstract_outputs:[ 0; 0; 0 ]
    ~steps:[];
  Oracle_table.add t ~abstract_inputs:[ 1 ] ~abstract_outputs:[ 0 ] ~steps:[];
  Alcotest.(check int) "longest" 3 (Oracle_table.longest t);
  Oracle_table.clear t;
  Alcotest.(check int) "cleared" 0 (Oracle_table.size t)

(* --- sul --- *)

let sul_counting () =
  let m =
    Mealy.make ~size:1 ~initial:0 ~inputs:[| 'a' |] ~delta:[| [| 0 |] |]
      ~lambda:[| [| "x" |] |]
  in
  let sul, counts = Sul.counting (Sul.of_mealy m) in
  let _ = Sul.query sul [ 'a'; 'a' ] in
  let _ = Sul.query sul [ 'a' ] in
  let resets, steps = counts () in
  Alcotest.(check int) "resets" 2 resets;
  Alcotest.(check int) "steps" 3 steps

(* --- nondet --- *)

let flaky_sul rng p good bad =
  (* Answers [good] normally, [bad] with probability p, per query. *)
  let current = ref good in
  Sul.make
    ~reset:(fun () -> current := if Rng.bool rng p then bad else good)
    ~step:(fun () -> !current)
    ()

let nondet_deterministic_fastpath () =
  let sul = flaky_sul (Rng.create 1L) 0.0 "ok" "bad" in
  match Nondet.query Nondet.default sul [ (); () ] with
  | Nondet.Deterministic answer ->
      Alcotest.(check (list string)) "answer" [ "ok"; "ok" ] answer
  | Nondet.Nondeterministic _ -> Alcotest.fail "expected deterministic"

let nondet_detects () =
  let sul = flaky_sul (Rng.create 2L) 0.5 "ok" "bad" in
  match
    Nondet.query { Nondet.min_runs = 10; max_runs = 60; agreement = 0.95 } sul [ () ]
  with
  | Nondet.Nondeterministic obs ->
      Alcotest.(check int) "two variants" 2 (List.length obs);
      let total = List.fold_left (fun n o -> n + o.Nondet.count) 0 obs in
      Alcotest.(check int) "all runs counted" 60 total
  | Nondet.Deterministic _ -> Alcotest.fail "expected nondeterminism"

let nondet_majority_tolerance () =
  (* 2% flake under a 0.9 agreement threshold: accepted as deterministic. *)
  let sul = flaky_sul (Rng.create 3L) 0.02 "ok" "bad" in
  match
    Nondet.query { Nondet.min_runs = 5; max_runs = 200; agreement = 0.9 } sul [ () ]
  with
  | Nondet.Deterministic answer ->
      Alcotest.(check (list string)) "majority answer" [ "ok" ] answer
  | Nondet.Nondeterministic _ -> Alcotest.fail "2% flake should pass 0.9 agreement"

let nondet_tally_stable () =
  let obs = Nondet.tally [ [ "b" ]; [ "a" ]; [ "c" ]; [ "a" ]; [ "b" ] ] in
  Alcotest.(check (list (pair (list string) int)))
    "by count, ties in first-seen order"
    [ ([ "b" ], 2); ([ "a" ], 2); ([ "c" ], 1) ]
    (List.map (fun o -> (o.Nondet.answer, o.Nondet.count)) obs)

let nondet_distribution_counts () =
  let sul = flaky_sul (Rng.create 4L) 0.3 "ok" "bad" in
  let obs = Nondet.distribution ~runs:1000 sul [ () ] in
  let rate = Nondet.frequency obs (fun a -> a = [ "bad" ]) in
  Alcotest.(check bool)
    (Printf.sprintf "rate %.3f near 0.3" rate)
    true
    (rate > 0.26 && rate < 0.34)

let modal_oracle_prefix_consistent () =
  let rng = Rng.create 7L in
  (* Each step independently flaky: the raw SUL answers differ between
     runs, but the modal oracle must answer consistently on prefixes. *)
  let sul =
    Sul.make
      ~reset:(fun () -> ())
      ~step:(fun () -> if Rng.bool rng 0.3 then "B" else "A")
      ()
  in
  let oracle = Nondet.modal_oracle ~runs:51 sul in
  let a3 = oracle [ (); (); () ] in
  let a2 = oracle [ (); () ] in
  let a1 = oracle [ () ] in
  Alcotest.(check (list string)) "len-2 is a prefix of len-3" a2
    (List.filteri (fun i _ -> i < 2) a3);
  Alcotest.(check (list string)) "len-1 is a prefix of len-2" a1
    (List.filteri (fun i _ -> i < 1) a2);
  Alcotest.(check (list string)) "all modal" [ "A"; "A"; "A" ] a3

let modal_oracle_memoizes () =
  let calls = ref 0 in
  let sul =
    Sul.make
      ~reset:(fun () -> incr calls)
      ~step:(fun () -> "x")
      ()
  in
  let oracle = Nondet.modal_oracle ~runs:5 sul in
  let _ = oracle [ (); () ] in
  let after_first = !calls in
  let _ = oracle [ (); () ] in
  Alcotest.(check int) "no extra SUL resets on repeat" after_first !calls

(* --- adapter --- *)

let echo_adapter () =
  (* Abstract symbol n; concrete packet = string of n; output = n+1. *)
  Adapter.create
    ~reset:(fun () -> ())
    ~step:(fun n -> (n + 1, [ string_of_int n ], [ string_of_int (n + 1) ]))
    ()

let adapter_query_records () =
  let a = echo_adapter () in
  Alcotest.(check (list int)) "outputs" [ 2; 3 ] (Adapter.query a [ 1; 2 ]);
  match Oracle_table.find a.Adapter.table [ 1; 2 ] with
  | None -> Alcotest.fail "not recorded"
  | Some e ->
      Alcotest.(check (list int)) "abstract outputs" [ 2; 3 ]
        e.Oracle_table.abstract_outputs;
      Alcotest.(check (list string)) "concrete in" [ "1"; "2" ]
        (Oracle_table.concrete_inputs e)

let adapter_to_sul_retains_nothing () =
  let a = echo_adapter () in
  let sul = Adapter.to_sul a in
  Alcotest.(check (list int)) "outputs" [ 6 ] (Sul.query sul [ 5 ]);
  (* A second query resets the view, which must not record the first. *)
  Alcotest.(check (list int)) "outputs" [ 8; 9 ] (Sul.query sul [ 7; 8 ]);
  Alcotest.(check int) "nothing recorded" 0 (Oracle_table.size a.Adapter.table)

(* The learner's view answers exactly what a recorded query answers:
   two fresh adapters built with the same seed, one stepped through
   [to_sul], the other through [query]. *)
let prop_to_sul_matches_query ~name ~alphabet create =
  QCheck2.Test.make ~count:60 ~name
    QCheck2.Gen.(
      pair (map Int64.of_int nat)
        (list_size (int_range 0 8) (oneofa alphabet)))
    (fun (seed, word) ->
      Sul.query (Adapter.to_sul (create seed)) word
      = Adapter.query (create seed) word)

let to_sul_matches_query =
  [
    prop_to_sul_matches_query ~name:"tcp to_sul = query"
      ~alphabet:Prognosis_tcp.Tcp_alphabet.all (fun seed ->
        Prognosis_tcp.Tcp_adapter.create ~seed ());
    prop_to_sul_matches_query ~name:"quic to_sul = query"
      ~alphabet:Prognosis_quic.Quic_alphabet.all (fun seed ->
        fst (Prognosis_quic.Quic_adapter.create ~seed ()));
    prop_to_sul_matches_query ~name:"dtls to_sul = query"
      ~alphabet:Prognosis_dtls.Dtls_alphabet.all (fun seed ->
        fst (Prognosis_dtls.Dtls_adapter.create ~seed ()));
  ]

let () =
  Alcotest.run "sul"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick rng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick rng_seed_sensitivity;
          Alcotest.test_case "copy" `Quick rng_copy_independent;
          Alcotest.test_case "split" `Quick rng_split_independent;
          Alcotest.test_case "split reproducible" `Quick rng_split_reproducible;
          Alcotest.test_case "split_n pairwise different" `Quick
            rng_split_n_pairwise_different;
          Alcotest.test_case "int bounds" `Quick rng_int_bounds;
          Alcotest.test_case "int rejects" `Quick rng_int_rejects_nonpositive;
          Alcotest.test_case "float range" `Quick rng_float_range;
          Alcotest.test_case "bool rate" `Quick rng_bool_rate;
          Alcotest.test_case "bytes" `Quick rng_bytes_length;
          Alcotest.test_case "known answers" `Quick rng_known_answers;
          QCheck_alcotest.to_alcotest prop_rng_int_covers;
        ] );
      ( "network",
        [
          Alcotest.test_case "reliable" `Quick network_reliable_passthrough;
          Alcotest.test_case "loss rate" `Quick network_loss_rate;
          Alcotest.test_case "duplication" `Quick network_duplication;
          Alcotest.test_case "corruption" `Quick network_corruption_changes_payload;
          Alcotest.test_case "corrupt empty" `Quick network_corruption_empty_payload;
          Alcotest.test_case "reconfigure" `Quick network_reconfigure;
        ] );
      ( "inet",
        [
          Alcotest.test_case "ipv4 roundtrip" `Quick ipv4_roundtrip;
          Alcotest.test_case "ipv4 checksum" `Quick ipv4_checksum_detects;
          Alcotest.test_case "udp roundtrip" `Quick udp_roundtrip;
          Alcotest.test_case "udp pseudo-header" `Quick udp_pseudo_header_binds_addresses;
          Alcotest.test_case "wrap/unwrap" `Quick wrap_unwrap_udp;
          Alcotest.test_case "ipv4 short total length" `Quick ipv4_short_total_length;
        ] );
      ( "oracle-table",
        [
          Alcotest.test_case "add/find" `Quick table_add_find;
          Alcotest.test_case "overwrite" `Quick table_overwrite_keeps_latest;
          Alcotest.test_case "order" `Quick table_entries_in_order;
          Alcotest.test_case "longest/clear" `Quick table_longest_and_clear;
        ] );
      ("sul", [ Alcotest.test_case "counting" `Quick sul_counting ]);
      ( "nondet",
        [
          Alcotest.test_case "deterministic fast path" `Quick nondet_deterministic_fastpath;
          Alcotest.test_case "detects" `Quick nondet_detects;
          Alcotest.test_case "majority tolerance" `Quick nondet_majority_tolerance;
          Alcotest.test_case "distribution" `Quick nondet_distribution_counts;
          Alcotest.test_case "tally is stable" `Quick nondet_tally_stable;
          Alcotest.test_case "modal prefix consistency" `Quick modal_oracle_prefix_consistent;
          Alcotest.test_case "modal memoizes" `Quick modal_oracle_memoizes;
        ] );
      ( "adapter",
        [
          Alcotest.test_case "query records" `Quick adapter_query_records;
          Alcotest.test_case "to_sul retains nothing" `Quick
            adapter_to_sul_retains_nothing;
        ]
        @ List.map QCheck_alcotest.to_alcotest to_sul_matches_query );
    ]
