(* Minor words and wall time per SUL step of the simulated stacks.

   Records the query stream a seed-42 [Protocol.learn] of tcp,
   quic:quiche-like and dtls sends to its SUL, then replays it on a
   fresh SUL of the same seed: once to warm up, once under
   [Gc.minor_words] (resets and first steps also counted apart), and
   seven times under the clock, whose median is reported per step.

   dune exec bench/step_words.exe *)

open Prognosis
module Sul = Prognosis_sul.Sul

(* the queries of one learn, in order, and the seed of its SUL *)
let record (d : ('i, 'o) Protocol.t) =
  let queries = ref [] and current = ref [] and seed = ref 0L in
  let flush () =
    if !current <> [] then queries := Array.of_list (List.rev !current) :: !queries;
    current := []
  in
  let sul ~seed:s =
    seed := s;
    let sul = d.Protocol.sul ~seed:s in
    {
      sul with
      Sul.reset =
        (fun () ->
          flush ();
          sul.Sul.reset ());
      step =
        (fun x ->
          current := x :: !current;
          sul.Sul.step x);
    }
  in
  ignore (Protocol.learn ~seed:42L { d with Protocol.sul });
  flush ();
  (Array.of_list (List.rev !queries), !seed)

let measure name (d : ('i, 'o) Protocol.t) =
  let queries, seed = record d in
  let sul = d.Protocol.sul ~seed in
  let step x = ignore (Sys.opaque_identity (sul.Sul.step x)) in
  let replay () =
    Array.iter
      (fun q ->
        sul.Sul.reset ();
        Array.iter step q)
      queries
  in
  replay ();
  let steps = Array.fold_left (fun n q -> n + Array.length q) 0 queries in
  let w0 = Gc.minor_words () in
  replay ();
  let words = Gc.minor_words () -. w0 in
  (* resets and first steps apart; [part.(3)] is the bracket itself *)
  let part = Array.make 4 0.0 in
  let counted i f =
    let a = Gc.minor_words () in
    f ();
    part.(i) <- part.(i) +. (Gc.minor_words () -. a)
  in
  Array.iter
    (fun q ->
      counted 0 sul.Sul.reset;
      Array.iteri (fun i x -> counted (if i = 0 then 1 else 2) (fun () -> step x)) q)
    queries;
  for _ = 1 to 1000 do
    counted 3 ignore
  done;
  let bracket = part.(3) /. 1000. and n = float (Array.length queries) in
  let times =
    List.sort compare
      (List.init 7 (fun _ ->
           let t0 = Unix.gettimeofday () in
           replay ();
           Unix.gettimeofday () -. t0))
  in
  Printf.printf
    "%-17s %5d queries %5d steps  %6.1f words/step  %5.0f ns/step  (reset %.1f, \
     first step %.1f, later steps %.1f words)\n%!"
    name (Array.length queries) steps (words /. float steps)
    (List.nth times 3 *. 1e9 /. float steps)
    ((part.(0) /. n) -. bracket)
    ((part.(1) /. n) -. bracket)
    ((part.(2) /. (float steps -. n)) -. bracket)

let () =
  measure "tcp" (Tcp_study.protocol ());
  measure "quic:quiche-like" (Quic_study.protocol Quic_study.Profile.quiche_like);
  measure "dtls" (Dtls_study.protocol ())
