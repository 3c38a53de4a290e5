module Rng = Prognosis_sul.Rng
module Learn = Prognosis_learner.Learn
module Checkpoint = Prognosis_learner.Checkpoint
module Engine = Prognosis_exec.Engine

type ('i, 'o) factory =
  seed:int64 -> workers:int -> int -> ('i, 'o) Prognosis_sul.Sul.t

let seeded make ~seed ~workers =
  let wseeds = Array.map Rng.next64 (Rng.split_n (Rng.create seed) workers) in
  fun i -> make wseeds.(i)

let algorithm_name = function Learn.L_star -> "L*" | Learn.Ttt_tree -> "TTT"

let learn ?exec ?cache ?labels ?checkpoint ~subject ~seed ~algorithm ~inputs
    ~factory ~eq () =
  let config =
    match exec with
    | Some config -> config
    | None -> { Engine.default with Engine.batch = false }
  in
  let cache =
    match checkpoint with Some ck -> Some (Checkpoint.cache ck) | None -> cache
  in
  let engine =
    Engine.create ~config ?labels ?cache
      ~factory:(factory ~seed ~workers:config.Engine.workers)
      ()
  in
  Option.iter
    (fun ck ->
      (* A thaw failure only loses advisory robustness bookkeeping (a
         resumed run with a resized pool starts its strike counters
         fresh); the query cache is what matters. *)
      (match Checkpoint.exec_blob ck with
      | Some blob -> (
          try Engine.thaw engine blob with Invalid_argument _ -> ())
      | None -> ());
      Checkpoint.set_exec_state ck (fun () -> Engine.freeze engine))
    checkpoint;
  (* [cache_stats] makes [run_mq] check that the queries reaching the
     pool equal the cache view's misses. *)
  let r =
    Learn.run_mq ~algorithm ?checkpoint
      ~cache_stats:(fun () -> Engine.cache_stats engine)
      ~inputs ~mq:(Engine.membership engine) ~eq ()
  in
  ( r.Learn.model,
    Report.of_learn_result ~subject ~algorithm:(algorithm_name algorithm)
      ?exec:(Option.map (fun _ -> Engine.stats_json engine) exec)
      r )
