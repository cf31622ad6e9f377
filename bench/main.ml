(* Benchmark harness for the multilevel checkpoint reproduction.

   Two parts, both in this one executable:

   1. Bechamel micro-benchmarks — one [Test.make] per paper table/figure,
      timing the computational kernel that regenerates it (the optimizer
      solve, a simulated run, the emulator, the least-squares fit, ...),
      plus a few substrate kernels (Reed-Solomon, event queue, RNG).

   2. The full regeneration of every table and figure via
      [Ckpt_experiments.Registry] — the same rows/series the paper
      reports, printed to stdout.

   Run with:  dune exec bench/main.exe
   Pass --quick to skip part 2, or experiment ids to regenerate a
   subset.  Pass --json to instead run the parallel/warm-start
   regression kernels and write BENCH_results.json (the artifact CI
   archives per revision). *)

open Bechamel
open Toolkit
open Ckpt_model
module E = Ckpt_experiments
module Failure_spec = Ckpt_failures.Failure_spec

(* --- kernels under benchmark ------------------------------------------- *)

let fig3_kernel () = Single_level.optimize (E.Paper_data.fig3_problem ~linear_cost:false)

let table2_kernel () =
  Overhead.fit ~snap:1e-3 ~scales:E.Paper_data.table2_scales
    ~costs:E.Paper_data.table2_costs.(3) ()

let eval_problem = E.Paper_data.eval_problem ~te_core_days:3e6 ~case:"16-12-8-4" ()
let eval_plan = Optimizer.ml_opt_scale eval_problem

let fig5_solve_kernel () = Optimizer.ml_opt_scale eval_problem

let sim_config =
  Ckpt_sim.Run_config.of_plan ~semantics:Ckpt_sim.Run_config.paper_semantics
    ~problem:eval_problem ~plan:eval_plan ()

(* Each simulation kernel owns its seed counter, at a distinct base: with
   a shared counter, how many iterations bechamel granted one kernel
   shifted the seeds — and so the timings — of every other, making runs
   incomparable. *)
let fig5_seed = ref 0

let fig5_sim_kernel () =
  incr fig5_seed;
  Ckpt_sim.Engine.run ~seed:!fig5_seed sim_config

let fig1_kernel () = Optimizer.solve ~fixed_n:5e5 eval_problem

let fig2_kernel () =
  Ckpt_mpi.Emulator.run ~machine:Ckpt_mpi.Machine.default
    (Ckpt_mpi.Heat.program ~ranks:64 ())

let small_validation_config =
  let problem =
    { Optimizer.te = 1024. *. 3600.;
      speedup = Speedup.quadratic ~kappa:0.46 ~n_star:1e6;
      levels = Level.fti_fusion;
      alloc = 10.;
      spec = Failure_spec.of_string ~baseline_scale:1024. "24-18-12-6" }
  in
  let plan = Optimizer.ml_ori_scale ~n:1024. problem in
  Ckpt_sim.Run_config.of_plan ~problem ~plan ()

let fig4_event_seed = ref 100_000

let fig4_event_kernel () =
  incr fig4_event_seed;
  Ckpt_sim.Engine.run ~seed:!fig4_event_seed small_validation_config

let fig4_tick_seed = ref 200_000

let fig4_tick_kernel () =
  incr fig4_tick_seed;
  Ckpt_sim.Tick_engine.run ~seed:!fig4_tick_seed small_validation_config

let table3_kernel () = Optimizer.sl_opt_scale eval_problem

let fig6_problem = E.Paper_data.eval_problem ~te_core_days:1e7 ~case:"8-6-4-2" ()
let fig6_kernel () = Optimizer.ml_opt_scale fig6_problem

let fig7_seed = ref 300_000

let fig7_kernel () =
  incr fig7_seed;
  let o = Ckpt_sim.Engine.run ~seed:!fig7_seed sim_config in
  Ckpt_sim.Outcome.efficiency o ~te:eval_problem.Optimizer.te ~n:eval_plan.Optimizer.n

let table4_problem =
  E.Paper_data.eval_problem ~levels:Level.constant_pfs_case ~te_core_days:2e6
    ~case:"8-6-4-2" ()

let table4_kernel () = Optimizer.ml_opt_scale table4_problem
let convergence_kernel () = Optimizer.solve ~delta:1e-12 eval_problem

let markov_params =
  { Markov.te = eval_problem.Optimizer.te;
    speedup = eval_problem.Optimizer.speedup;
    levels = eval_problem.Optimizer.levels;
    alloc = eval_problem.Optimizer.alloc;
    spec = eval_problem.Optimizer.spec }

let scr_kernel () =
  (* Reduced period grid: the full 13-value grid takes ~1 s per solve. *)
  Markov.optimize ~candidate_periods:[ 1; 8; 64; 512 ] markov_params ~n:376_179.

let costmodel_kernel () =
  Ckpt_fti.Cost_model.fit_levels Ckpt_fti.Cost_model.fusion
    ~scales:[| 128; 256; 384; 512; 1024 |]

let sensitivity_kernel () =
  Sensitivity.elasticities ~rel_step:0.05
    [ List.hd (Sensitivity.quadratic_knobs ~kappa:0.46 ~n_star:1e6 eval_problem) ]

let nonconvexity_kernel () =
  E.Nonconvexity.compute ()

(* Substrate kernels. *)

let rs_codec = Ckpt_storage.Reed_solomon.create ~data:8 ~parity:2

let rs_payloads =
  let rng = Ckpt_numerics.Rng.of_int 1 in
  Array.init 8 (fun _ ->
      Bytes.init 4096 (fun _ -> Char.chr (Ckpt_numerics.Rng.int rng 256)))

let rs_encode_kernel () = Ckpt_storage.Reed_solomon.encode rs_codec rs_payloads

let rs_decode_kernel =
  let parity = Ckpt_storage.Reed_solomon.encode rs_codec rs_payloads in
  let shards =
    Array.append (Array.map Option.some rs_payloads) (Array.map Option.some parity)
  in
  shards.(0) <- None;
  shards.(5) <- None;
  fun () -> Ckpt_storage.Reed_solomon.decode rs_codec shards

let event_queue_kernel () =
  let q = Ckpt_simkernel.Event_queue.create () in
  for i = 0 to 999 do
    ignore (Ckpt_simkernel.Event_queue.push q ~time:(float_of_int ((i * 7919) mod 1000)) i)
  done;
  let rec drain () = match Ckpt_simkernel.Event_queue.pop q with Some _ -> drain () | None -> () in
  drain ()

let rng_kernel =
  let rng = Ckpt_numerics.Rng.of_int 7 in
  fun () ->
    let acc = ref 0. in
    for _ = 1 to 1000 do
      acc := !acc +. Ckpt_numerics.Dist.exponential rng ~rate:1.
    done;
    !acc

let jacobi_grid = Ckpt_mpi.Heat.Jacobi.create ~size:64
let jacobi_kernel () = Ckpt_mpi.Heat.Jacobi.step jacobi_grid

let cg_system = Ckpt_numerics.Sparse.poisson_2d ~n:24
let cg_rhs = Array.make (Ckpt_numerics.Sparse.rows cg_system) 1.
let cg_kernel () = Ckpt_numerics.Cg.solve ~tol:1e-8 ~a:cg_system ~b:cg_rhs ()

let json_doc =
  Codec.bundle_to_json ~problem:eval_problem ~plan:eval_plan
  |> Ckpt_json.Json.to_string ~pretty:true

let json_kernel () = Ckpt_json.Json.parse json_doc

(* Service kernels: batch throughput of the ckpt_service planning layer,
   tracked from the PR that introduced it.  One persistent service per
   worker count; each run answers a 64-point scale sweep through the
   full JSON protocol.  The cold variants defeat cross-run caching by
   shifting the grid per run; the warm variant re-answers a fixed grid
   out of the LRU. *)

let service_problem_json =
  Ckpt_json.Json.to_string (Codec.problem_to_json eval_problem)

let sweep_request ~offset =
  let values =
    String.concat ", "
      (List.init 64 (fun i -> Printf.sprintf "%.3f" (2e5 +. offset +. (float_of_int i *. 1e3))))
  in
  Printf.sprintf {|{"op": "sweep", "param": "scale", "values": [%s], "problem": %s}|}
    values service_problem_json

let service_w1 = lazy (Ckpt_service.Service.create ~workers:1 ~cache_capacity:64 ())
let service_w4 = lazy (Ckpt_service.Service.create ~workers:4 ~cache_capacity:64 ())
let service_warm = lazy (Ckpt_service.Service.create ~workers:4 ~cache_capacity:4096 ())
let sweep_offset = ref 0.

let service_sweep_kernel service () =
  (* A fresh grid each run: with capacity 64 < 65 distinct points per
     shift, every point misses and the solver really runs. *)
  sweep_offset := !sweep_offset +. 10.;
  Ckpt_service.Service.handle_batch (Lazy.force service)
    [ sweep_request ~offset:!sweep_offset ]

let service_warm_kernel () =
  Ckpt_service.Service.handle_batch (Lazy.force service_warm) [ sweep_request ~offset:0. ]

let () =
  at_exit (fun () ->
      List.iter
        (fun s -> if Lazy.is_val s then Ckpt_service.Service.shutdown (Lazy.force s))
        [ service_w1; service_w4; service_warm ])

(* Adaptive kernels: telemetry ingest and controller stepping throughput,
   tracked from the PR that introduced ckpt_adaptive.  The event stream is
   one simulated run of the small validation problem (~thousands of
   events).  The controller kernel measures the per-event decision path —
   [min_failures = max_int] keeps Algorithm-1 evaluations out of the
   loop, whose cost fig5-algorithm1-solve already tracks. *)

let adaptive_events =
  let events, _ = Ckpt_adaptive.Telemetry.of_run ~seed:11 small_validation_config in
  events

let adaptive_levels = Array.length Level.fti_fusion

let adaptive_ingest_kernel () =
  let rates =
    Ckpt_adaptive.Rate_estimator.observe_all
      (Ckpt_adaptive.Rate_estimator.create ~levels:adaptive_levels ())
      adaptive_events
  in
  let costs =
    Ckpt_adaptive.Cost_estimator.observe_all
      (Ckpt_adaptive.Cost_estimator.create ~levels:adaptive_levels ())
      adaptive_events
  in
  (Ckpt_adaptive.Rate_estimator.total_count rates,
   Ckpt_adaptive.Cost_estimator.ckpt_count costs ~level:1)

let adaptive_controller_state =
  lazy
    (let problem =
       { Optimizer.te = 1024. *. 3600.;
         speedup = Speedup.quadratic ~kappa:0.46 ~n_star:1e6;
         levels = Level.fti_fusion;
         alloc = 10.;
         spec = Failure_spec.of_string ~baseline_scale:1024. "24-18-12-6" }
     in
     Ckpt_adaptive.Controller.init
       { (Ckpt_adaptive.Controller.default_config problem) with
         Ckpt_adaptive.Controller.min_failures = max_int })

let adaptive_controller_kernel () =
  Ckpt_adaptive.Controller.step_all (Lazy.force adaptive_controller_state) adaptive_events

let tests =
  Test.make_grouped ~name:"paper"
    [ Test.make ~name:"fig1-solve-at-scale" (Staged.stage fig1_kernel);
      Test.make ~name:"fig2-heat-emulation-64" (Staged.stage fig2_kernel);
      Test.make ~name:"fig3-single-level-optimize" (Staged.stage fig3_kernel);
      Test.make ~name:"table2-overhead-fit" (Staged.stage table2_kernel);
      Test.make ~name:"fig4-event-engine-run" (Staged.stage fig4_event_kernel);
      Test.make ~name:"fig4-tick-engine-run" (Staged.stage fig4_tick_kernel);
      Test.make ~name:"fig5-algorithm1-solve" (Staged.stage fig5_solve_kernel);
      Test.make ~name:"fig5-simulated-run" (Staged.stage fig5_sim_kernel);
      Test.make ~name:"table3-sl-opt-solve" (Staged.stage table3_kernel);
      Test.make ~name:"fig6-solve-10m-core-days" (Staged.stage fig6_kernel);
      Test.make ~name:"fig7-efficiency-run" (Staged.stage fig7_kernel);
      Test.make ~name:"table4-const-pfs-solve" (Staged.stage table4_kernel);
      Test.make ~name:"convergence-delta-1e12" (Staged.stage convergence_kernel);
      Test.make ~name:"nonconvexity-scan" (Staged.stage nonconvexity_kernel);
      Test.make ~name:"scr-markov-optimize" (Staged.stage scr_kernel);
      Test.make ~name:"costmodel-fit-levels" (Staged.stage costmodel_kernel);
      Test.make ~name:"sensitivity-one-knob" (Staged.stage sensitivity_kernel) ]

let substrate_tests =
  Test.make_grouped ~name:"substrate"
    [ Test.make ~name:"reed-solomon-encode-8+2x4KB" (Staged.stage rs_encode_kernel);
      Test.make ~name:"reed-solomon-decode-2-erasures" (Staged.stage rs_decode_kernel);
      Test.make ~name:"event-queue-1k-push-pop" (Staged.stage event_queue_kernel);
      Test.make ~name:"rng-1k-exponentials" (Staged.stage rng_kernel);
      Test.make ~name:"jacobi-sweep-64x64" (Staged.stage jacobi_kernel);
      Test.make ~name:"cg-solve-poisson-576" (Staged.stage cg_kernel);
      Test.make ~name:"json-parse-plan-bundle" (Staged.stage json_kernel);
      Test.make ~name:"service-sweep64-1-worker" (Staged.stage (service_sweep_kernel service_w1));
      Test.make ~name:"service-sweep64-4-workers" (Staged.stage (service_sweep_kernel service_w4));
      Test.make ~name:"service-sweep64-warm-cache" (Staged.stage service_warm_kernel);
      Test.make ~name:"adaptive-ingest-run-telemetry" (Staged.stage adaptive_ingest_kernel);
      Test.make ~name:"adaptive-controller-step-run" (Staged.stage adaptive_controller_kernel) ]

(* --- JSON regression harness (--json) ------------------------------------ *)

(* A lightweight wall-clock harness for the kernels whose performance
   this PR sequence tracks across commits: the parallel replication
   layer, warm-started sweeps and concurrent registry regeneration.
   Bechamel stays the tool for micro-kernels; this mode emits a small
   machine-readable BENCH_results.json that CI archives per revision. *)

module Pool = Ckpt_parallel.Pool
module J = Ckpt_json.Json

let git_rev () =
  try
    let ic = Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" in
    let line = try input_line ic with End_of_file -> "unknown" in
    match Unix.close_process_in ic with Unix.WEXITED 0 -> line | _ -> "unknown"
  with _ -> "unknown"

(* Each rep also reads the minor-heap allocation counter: allocation per
   rep is the fastpath's primary regression signal — a kernel can stay
   fast on one machine while quietly re-boxing, and wall time alone
   would not catch it until the next slow box. *)
let time_ns ?(warmup = 1) ~reps f =
  for _ = 1 to warmup do
    ignore (Sys.opaque_identity (f ()))
  done;
  let w0 = Gc.minor_words () in
  let samples =
    Array.init reps (fun _ ->
        let t0 = Unix.gettimeofday () in
        ignore (Sys.opaque_identity (f ()));
        (Unix.gettimeofday () -. t0) *. 1e9)
  in
  let minor_words = (Gc.minor_words () -. w0) /. float_of_int reps in
  let mean = Array.fold_left ( +. ) 0. samples /. float_of_int reps in
  let var =
    Array.fold_left (fun acc s -> acc +. ((s -. mean) *. (s -. mean))) 0. samples
    /. float_of_int (max 1 (reps - 1))
  in
  (mean, sqrt var, minor_words)

let timing_obj label (mean, std, minor_words) =
  ( label,
    J.Obj
      [ ("mean_ns", J.Number mean);
        ("stddev_ns", J.Number std);
        ("minor_words_per_rep", J.Number minor_words) ] )

(* Solver iteration telemetry.  Unlike wall time these counts are
   deterministic — the same batch solves with the same iteration budget
   on any machine — so diff.exe gates them far tighter than the timing
   metrics (see the lenience there). *)
let iterations_obj ~inner ~outer ~f_evals =
  ( "iterations",
    J.Obj
      [ ("inner", J.Number (float_of_int inner));
        ("outer", J.Number (float_of_int outer));
        ("f_evals", J.Number (float_of_int f_evals)) ] )

let bench_entry ~kernel ~workers ~reps ~baseline ~optimized extra =
  let base_mean, _, _ = baseline in
  let opt_mean, _, _ = optimized in
  J.Obj
    ([ ("kernel", J.String kernel);
       ("workers", J.Number (float_of_int workers));
       ("reps", J.Number (float_of_int reps));
       timing_obj "sequential" baseline;
       timing_obj "parallel" optimized;
       ( "speedup_vs_1_worker",
         J.Number (if opt_mean > 0. then base_mean /. opt_mean else 0.) ) ]
    @ extra)

(* A free-scale problem in the range where Algorithm 1 converges: a
   Table II rate pattern scaled 0.5-2x at a quadratic speedup's peak,
   FTI levels. *)
let draw_free_problem rng =
  let uniform lo hi = lo +. Random.State.float rng (hi -. lo) in
  let log_uniform lo hi = exp (uniform (log lo) (log hi)) in
  let cases = Array.of_list E.Paper_data.cases in
  let n_star = log_uniform 2e5 2e6 in
  let factor = uniform 0.5 2. in
  let case = cases.(Random.State.int rng (Array.length cases)) in
  let rates = (Failure_spec.of_string case).Failure_spec.rates_per_day in
  { Optimizer.te = log_uniform 5e5 5e6 *. 86_400.;
    speedup = Speedup.quadratic ~kappa:(uniform 0.35 0.6) ~n_star;
    levels = Level.fti_fusion;
    alloc = uniform 20. 120.;
    spec = Failure_spec.v ~baseline_scale:n_star (Array.map (( *. ) factor) rates) }

(* The 16 non-integral floats a served plan prints: xs, n, wall_clock,
   mus, the five-part breakdown and the efficiency. *)
let plan_floats (p : Optimizer.plan) =
  let b = p.Optimizer.breakdown in
  Array.to_list p.Optimizer.xs
  @ [ p.Optimizer.n; p.Optimizer.wall_clock ]
  @ Array.to_list p.Optimizer.mus
  @ [ b.Multilevel.productive; b.Multilevel.checkpoint; b.Multilevel.restart;
      b.Multilevel.allocation; b.Multilevel.rollback; p.Optimizer.efficiency ]

let table2_plans () =
  List.map
    (fun case -> Optimizer.solve (E.Paper_data.eval_problem ~te_core_days:3e6 ~case ()))
    E.Paper_data.cases

let json_bench () =
  let workers = Pool.recommended_workers () in
  let reps = 5 in
  let entries =
    Pool.with_pool ~workers (fun pool ->
        (* Replication: the Monte-Carlo fan-out (bit-identical either way). *)
        let repl_runs = 20 in
        let repl_seq =
          time_ns ~reps (fun () ->
              Ckpt_sim.Replication.run ~runs:repl_runs small_validation_config)
        in
        let repl_par =
          time_ns ~reps (fun () ->
              Ckpt_sim.Replication.run ~pool ~runs:repl_runs small_validation_config)
        in
        (* Sweep: one cold solve per grid point vs the grid as one
           batch, whose rows warm-start from their neighbours. *)
        let sweep_values =
          Array.init 16 (fun i -> 2e5 +. (float_of_int i *. 5e4))
        in
        let sweep_solve_cold () =
          Array.map (fun n -> Optimizer.solve ~fixed_n:n eval_problem) sweep_values
        in
        let sweep_solve_warm () =
          Optimizer.solve_batch
            (Array.map
               (fun n -> Optimizer.batch_job ~fixed_n:n eval_problem)
               sweep_values)
        in
        let sweep_cold = time_ns ~reps sweep_solve_cold in
        let sweep_warm = time_ns ~reps sweep_solve_warm in
        let plans_sum f plans = Array.fold_left (fun acc p -> acc + f p) 0 plans in
        let inner_sum = plans_sum (fun p -> p.Optimizer.inner_iterations) in
        let cold_plans = sweep_solve_cold () and warm_plans = sweep_solve_warm () in
        (* Free-scale single solves: the paper's six Table II rate cases
           through [Optimizer.solve] with no fixed_n, so every solve runs
           the Eq. 24 scale search and the gated f_evals count is not
           zero. *)
        let table2_problems =
          List.map
            (fun case -> E.Paper_data.eval_problem ~te_core_days:3e6 ~case ())
            E.Paper_data.cases
        in
        let solve_table2 () = List.map (fun p -> Optimizer.solve p) table2_problems in
        let table2_reps = 20 in
        let table2_timing = time_ns ~reps:table2_reps solve_table2 in
        let table2_plans = solve_table2 () in
        let table2_sum f = List.fold_left (fun acc p -> acc + f p) 0 table2_plans in
        (* Free-scale batch rows, the path the server's cache misses
           take: one [Optimizer.solve_batch] over 16 unrelated problems
           (Table II rate patterns scaled 0.5-2x at a quadratic
           speedup's peak, FTI levels), drawn with a fixed seed, plus
           one 8-point te sweep of a 17th as a second, 8-row batch.
           Only its deterministic iteration counts are committed to the
           baseline. *)
        let free_problems =
          let rng = Random.State.make [| 17 |] in
          Array.init 17 (fun _ -> draw_free_problem rng)
        in
        let batch_jobs = Array.init 16 (fun i -> Optimizer.batch_job free_problems.(i)) in
        let swept = free_problems.(16) in
        let sweep_jobs =
          Array.init 8 (fun j ->
              Optimizer.batch_job
                { swept with
                  Optimizer.te =
                    swept.Optimizer.te *. (1. +. (0.05 *. float_of_int j)) })
        in
        let solve_batch_free () =
          Array.append
            (Optimizer.solve_batch batch_jobs)
            (Optimizer.solve_batch sweep_jobs)
        in
        let batch_free_reps = 20 in
        let batch_free_timing = time_ns ~reps:batch_free_reps solve_batch_free in
        let batch_free_plans = solve_batch_free () in
        let batch_free_sum f = plans_sum f batch_free_plans in
        (* Registry: independent experiment renders, fanned across domains. *)
        let registry_ids = [ "fig3"; "table2"; "costmodel" ] in
        let registry_experiments =
          List.filter_map E.Registry.find registry_ids
        in
        let registry_seq =
          time_ns ~reps (fun () -> E.Registry.render_all registry_experiments)
        in
        let registry_par =
          time_ns ~reps (fun () -> E.Registry.render_all ~pool registry_experiments)
        in
        [ bench_entry ~kernel:(Printf.sprintf "replication-%d-runs" repl_runs)
            ~workers ~reps ~baseline:repl_seq ~optimized:repl_par [];
          bench_entry
            ~kernel:(Printf.sprintf "sweep-scale-%dpt-warm-vs-cold"
                       (Array.length sweep_values))
            ~workers:1 ~reps ~baseline:sweep_cold ~optimized:sweep_warm
            [ ("cold_inner_iterations", J.Number (float_of_int (inner_sum cold_plans)));
              ("warm_inner_iterations", J.Number (float_of_int (inner_sum warm_plans)));
              iterations_obj ~inner:(inner_sum warm_plans)
                ~outer:(plans_sum (fun p -> p.Optimizer.outer_iterations) warm_plans)
                ~f_evals:(plans_sum (fun p -> p.Optimizer.f_evals) warm_plans) ];
          J.Obj
            [ ("kernel", J.String "solve-table2-free-scale");
              ("workers", J.Number 1.);
              ("reps", J.Number (float_of_int table2_reps));
              timing_obj "wall" table2_timing;
              iterations_obj
                ~inner:(table2_sum (fun p -> p.Optimizer.inner_iterations))
                ~outer:(table2_sum (fun p -> p.Optimizer.outer_iterations))
                ~f_evals:(table2_sum (fun p -> p.Optimizer.f_evals)) ];
          J.Obj
            [ ("kernel", J.String "solve-batch-free-scale");
              ("workers", J.Number 1.);
              ("reps", J.Number (float_of_int batch_free_reps));
              timing_obj "wall" batch_free_timing;
              iterations_obj
                ~inner:(batch_free_sum (fun p -> p.Optimizer.inner_iterations))
                ~outer:(batch_free_sum (fun p -> p.Optimizer.outer_iterations))
                ~f_evals:(batch_free_sum (fun p -> p.Optimizer.f_evals)) ];
          bench_entry
            ~kernel:(Printf.sprintf "registry-%s" (String.concat "+" registry_ids))
            ~workers ~reps ~baseline:registry_seq ~optimized:registry_par [] ])
  in
  (* Planner under faults: the resilience tax.  The same 64-query
     all-miss batch, healthy vs a seeded ~10% pool+solver fault rate
     (retries, fallback chain and worker respawns included in the
     timing).  Each run shifts the grid so the LRU never serves it. *)
  let entries =
    entries
    @
    let module Chaos = Ckpt_chaos.Chaos in
    let module Planner = Ckpt_service.Planner in
    let module Metrics = Ckpt_service.Metrics in
    let planner_offset = ref 0. in
    let batch () =
      planner_offset := !planner_offset +. 7.;
      Array.init 64 (fun i ->
          { Ckpt_service.Protocol.problem = eval_problem;
            solution = Ckpt_service.Protocol.Ml_opt;
            fixed_n = Some (2e5 +. !planner_offset +. (float_of_int i *. 1e3));
            delta = 1e-9 })
    in
    let fault_spec =
      { Chaos.disabled with
        Chaos.seed = 5;
        pool_crash = 0.05;
        pool_stall = 0.05;
        stall_max_s = 5e-4;
        solver_diverge = 0.05;
        solver_non_finite = 0.05 }
    in
    let time_planner ?chaos () =
      let metrics = Metrics.create () in
      let planner = Planner.create ~cache_capacity:16 ?chaos metrics in
      let degraded = ref 0 in
      let timing =
        match chaos with
        | None ->
            Pool.with_pool ~workers (fun pool ->
                time_ns ~reps (fun () -> Planner.solve_batch ~pool planner (batch ())))
        | Some c ->
            Pool.with_pool ~chaos:c ~workers (fun pool ->
                time_ns ~reps (fun () -> Planner.solve_batch ~pool planner (batch ())))
      in
      degraded := (Metrics.snapshot metrics).Metrics.degraded;
      (timing, !degraded)
    in
    let healthy, _ = time_planner () in
    let faulted, degraded = time_planner ~chaos:(Chaos.create fault_spec) () in
    (* The same 64-row batch shape solved directly (no pool, offset 0):
       its summed iteration counts are the deterministic twin of the
       timed kernel above, gated per revision. *)
    let planner_iterations =
      let jobs =
        Array.init 64 (fun i ->
            Optimizer.batch_job ~delta:1e-9
              ~fixed_n:(2e5 +. (float_of_int i *. 1e3))
              eval_problem)
      in
      let plans = Optimizer.solve_batch jobs in
      let sum f = Array.fold_left (fun acc p -> acc + f p) 0 plans in
      iterations_obj
        ~inner:(sum (fun p -> p.Optimizer.inner_iterations))
        ~outer:(sum (fun p -> p.Optimizer.outer_iterations))
        ~f_evals:(sum (fun p -> p.Optimizer.f_evals))
    in
    let planner_entry ~kernel ~fault_rate ~timing extra =
      J.Obj
        ([ ("kernel", J.String kernel);
           ("workers", J.Number (float_of_int workers));
           ("reps", J.Number (float_of_int reps));
           ("fault_rate", J.Number fault_rate);
           timing_obj "wall" timing ]
        @ extra)
    in
    [ planner_entry ~kernel:"planner-batch64-fault-0pct" ~fault_rate:0. ~timing:healthy
        [ planner_iterations ];
      planner_entry ~kernel:"planner-batch64-fault-10pct" ~fault_rate:0.1 ~timing:faulted
        [ ("degraded_answers", J.Number (float_of_int degraded)) ] ]
  in
  (* Hot service lines: the path every cache hit takes through the
     service — parse, key, lookup, encode — with no solve.  64 plan
     lines of distinct free-scale problems (fixed seed) are solved and
     cached first; each rep then sends the same 64 lines through
     [Service.handle_line_string].  Only its minor words per rep go into
     the committed baseline: a deterministic count that travels across
     machines, where its timing would not. *)
  let entries =
    entries
    @
    let module Service = Ckpt_service.Service in
    let rng = Random.State.make [| 64 |] in
    let lines =
      List.init 64 (fun i ->
          J.to_string
            (J.Obj
               [ ("id", J.Number (float_of_int i));
                 ("op", J.String "plan");
                 ("problem", Codec.problem_to_json (draw_free_problem rng)) ]))
    in
    let service = Service.create ~workers:0 () in
    Fun.protect ~finally:(fun () -> Service.shutdown service) @@ fun () ->
    let send_all () =
      List.iter (fun l -> ignore (Service.handle_line_string service l)) lines
    in
    send_all ();
    let reps = 20 in
    [ J.Obj
        [ ("kernel", J.String "service-hot-lines");
          ("workers", J.Number 0.);
          ("reps", J.Number (float_of_int reps));
          ("lines_per_rep", J.Number (float_of_int (List.length lines)));
          timing_obj "wall" (time_ns ~reps send_all) ] ]
  in
  (* Session intervals: the Garwood intervals an [estimate] computes,
     one four-level [confidence_per_day] set at coverage 0.95, at
     k = 1, 10^3 and 10^6 failures per level.  Its f_evals, the
     incomplete-gamma evaluations of those 24 quantiles, is the
     deterministic count the committed baseline gates. *)
  let entries =
    entries
    @
    let module R = Ckpt_adaptive.Rate_estimator in
    let levels = 4 and coverage = 0.95 in
    let ks = [ 1; 1_000; 1_000_000 ] in
    (* k failures at every level over 10^6 core-seconds, built as the
       snapshot an estimator restores from. *)
    let estimator k =
      let per_level v = J.List (List.init levels (fun _ -> J.Number v)) in
      let snapshot =
        J.Obj
          [ ("levels", J.Number (float_of_int levels));
            ("half_life", J.Null);
            ("counts", per_level (float_of_int k));
            ("exposure", J.Number 1e6);
            ("raw_counts", per_level (float_of_int k));
            ("raw_exposure", J.Number 1e6);
            ("scale", J.Number 1.);
            ("last_at", J.Null) ]
      in
      match R.of_json snapshot with
      | Ok t -> t
      | Error m -> failwith ("session-intervals bench: " ^ m)
    in
    let estimators = List.map estimator ks in
    let interval_sets () =
      List.iter
        (fun t ->
          for level = 1 to levels do
            ignore (R.confidence_per_day ~coverage t ~level ~baseline_scale:1.)
          done)
        estimators
    in
    (* The quantiles [confidence_per_day] takes: a = k at alpha/2 and
       a = k + 1 at 1 - alpha/2, per level. *)
    let f_evals =
      let alpha = 1. -. coverage in
      let evals a p = (Ckpt_numerics.Special.gamma_p_inv_outcome ~a ~p).Ckpt_numerics.Roots.f_evals in
      List.fold_left
        (fun acc k ->
          let k = float_of_int k in
          acc + (levels * (evals k (alpha /. 2.) + evals (k +. 1.) (1. -. (alpha /. 2.)))))
        0 ks
    in
    let reps = 5 in
    [ J.Obj
        [ ("kernel", J.String "session-intervals");
          ("workers", J.Number 0.);
          ("reps", J.Number (float_of_int reps));
          ("quantiles", J.Number (float_of_int (2 * levels * List.length ks)));
          timing_obj "wall" (time_ns ~reps interval_sets);
          ("iterations", J.Obj [ ("f_evals", J.Number (float_of_int f_evals)) ]) ] ]
  in
  (* Number printing: the 16 non-integral floats of each Table II plan,
     96 per rep, through [Json.add_number] into one reused buffer.  Only
     its minor words per rep go into the committed baseline. *)
  let entries =
    entries
    @
    let floats = List.concat_map plan_floats (table2_plans ()) in
    let buf = Buffer.create 4096 in
    (* A list holds the floats boxed, so passing one allocates nothing. *)
    let rec print = function
      | [] -> ()
      | f :: rest ->
          J.add_number buf f;
          print rest
    in
    let print_all () =
      Buffer.clear buf;
      print floats
    in
    let reps = 20_000 in
    [ J.Obj
        [ ("kernel", J.String "json-number");
          ("workers", J.Number 0.);
          ("reps", J.Number (float_of_int reps));
          ("floats_per_rep", J.Number (float_of_int (List.length floats)));
          timing_obj "wall" (time_ns ~warmup:100 ~reps print_all) ] ]
  in
  (* Request parsing: what [Wire.parse_request] does to every line the
     server reads.  The lines are perfbench's hot-plan mix (seed 42: 64
     resident problems; 70% plan, 20% batch-plan of 4, 10% 4-point scale
     sweep), 1,000 of them interleaved as two connections send them, and
     one line of each durable-telemetry op (observe, calibrate, estimate,
     replan), which the fastpath hands to the tree parser.  Its minor
     words per rep go into the committed baseline. *)
  let entries =
    entries
    @
    let module Gen = Perfbench_lib.Gen in
    let module Wire = Ckpt_service.Wire in
    let hot = Gen.interleaved Gen.Hot_plan ~seed:42 ~n:1_000 in
    let telemetry =
      let next = Gen.stream Gen.Durable_telemetry ~seed:42 ~conn:0 in
      List.init 4 (fun _ -> next ())
    in
    let lines = List.map (fun (r : Gen.request) -> r.Gen.line) (hot @ telemetry) in
    let parse_all () =
      List.iter (fun l -> ignore (Sys.opaque_identity (Wire.parse_request l))) lines
    in
    let reps = 20 in
    [ J.Obj
        [ ("kernel", J.String "wire-parse");
          ("workers", J.Number 0.);
          ("reps", J.Number (float_of_int reps));
          ("lines_per_rep", J.Number (float_of_int (List.length lines)));
          ( "bytes_per_rep",
            J.Number (float_of_int (List.fold_left (fun n l -> n + String.length l) 0 lines)) );
          timing_obj "wall" (time_ns ~warmup:2 ~reps parse_all) ] ]
  in
  (* WAL append throughput: the per-op durability cost the server pays
     under --wal-dir, swept across group-commit batches.  Each rep
     appends a realistic protocol-line payload 256 times and ends with
     an explicit flush, so every batch size pays for full durability of
     the same record count — b1 measures the strict fsync-per-op floor,
     b64 what group commit buys back. *)
  let entries =
    entries
    @
    let module Wal = Ckpt_net.Wal in
    let appends_per_rep = 256 in
    let payload =
      {|{"id": 7, "op": "observe", "events": [{"t": 0, "ev": "start", "scale": 100000, "levels": 4}, {"t": 3600, "ev": "compute", "dur": 3600, "productive": 3500}, {"t": 3630, "ev": "ckpt", "level": 2, "dur": 30}, {"t": 3630, "ev": "end", "completed": true}]}|}
    in
    let rec rm path =
      if Sys.is_directory path then begin
        Array.iter (fun e -> rm (Filename.concat path e)) (Sys.readdir path);
        Unix.rmdir path
      end
      else Sys.remove path
    in
    List.map
      (fun batch ->
        let dir =
          Filename.concat (Filename.get_temp_dir_name ())
            (Printf.sprintf "ckpt-bench-wal-%d-b%d" (Unix.getpid ()) batch)
        in
        let wal =
          match Wal.open_ (Wal.config ~fsync_batch:batch ~dir ()) ~next_seq:1 with
          | Ok w -> w
          | Error m -> failwith ("wal-append bench: " ^ m)
        in
        let timing =
          time_ns ~reps (fun () ->
              for _ = 1 to appends_per_rep do
                match Wal.append wal payload with
                | Ok _ -> ()
                | Error m -> failwith ("wal-append bench: " ^ m)
              done;
              match Wal.flush wal with
              | Ok () -> ()
              | Error m -> failwith ("wal-append bench: " ^ m))
        in
        Wal.close wal;
        if Sys.file_exists dir then rm dir;
        J.Obj
          [ ("kernel", J.String (Printf.sprintf "wal-append-b%d" batch));
            ("workers", J.Number 1.);
            ("reps", J.Number (float_of_int reps));
            ("fsync_batch", J.Number (float_of_int batch));
            ("appends_per_rep", J.Number (float_of_int appends_per_rep));
            timing_obj "wall" timing ])
      [ 1; 8; 64 ]
  in
  (* Per-worker scaling trajectories: the two pool-driven kernels at
     1/2/4/8 workers, each entry tagged "trajectory": true so diff.exe
     gates speedup_vs_1_worker (with extra leniency — scaling curves
     move more between machines than absolute times do). *)
  let entries =
    entries
    @
    let module Planner = Ckpt_service.Planner in
    let module Metrics = Ckpt_service.Metrics in
    let counts = [ 1; 2; 4; 8 ] in
    let repl_runs = 20 in
    (* Offset starts at 0 like the fault kernels above, keeping the
       fixed_n grid in the same 2e5 regime: a 1e6 start point used to
       shift the trajectory's problems into a different convergence
       region than the absolute-time kernels it is compared against. *)
    let planner_offset = ref 0. in
    let planner_batch () =
      planner_offset := !planner_offset +. 7.;
      Array.init 64 (fun i ->
          { Ckpt_service.Protocol.problem = eval_problem;
            solution = Ckpt_service.Protocol.Ml_opt;
            fixed_n = Some (2e5 +. !planner_offset +. (float_of_int i *. 1e3));
            delta = 1e-9 })
    in
    let trajectory name time_at =
      let timings = List.map (fun w -> (w, time_at w)) counts in
      let w1_mean =
        match timings with (1, (m, _, _)) :: _ -> m | _ -> assert false
      in
      List.map
        (fun (w, timing) ->
          let mean, _, _ = timing in
          J.Obj
            [ ("kernel", J.String (Printf.sprintf "%s-w%d" name w));
              ("trajectory", J.Bool true);
              ("workers", J.Number (float_of_int w));
              ("reps", J.Number (float_of_int reps));
              timing_obj "wall" timing;
              ( "speedup_vs_1_worker",
                J.Number (if mean > 0. then w1_mean /. mean else 0.) ) ])
        timings
    in
    (* Pool spawn/teardown stays outside [time_ns], and the extra warmup
       reps run inside the pool so first-touch costs (per-domain
       workspaces, worker wake-up) are paid before the timed region. *)
    trajectory (Printf.sprintf "replication-%d-runs" repl_runs) (fun w ->
        Pool.with_pool ~workers:w (fun pool ->
            time_ns ~warmup:3 ~reps (fun () ->
                Ckpt_sim.Replication.run ~pool ~runs:repl_runs
                  small_validation_config)))
    @ trajectory "planner-batch64" (fun w ->
          let planner = Planner.create ~cache_capacity:16 (Metrics.create ()) in
          Pool.with_pool ~workers:w (fun pool ->
              time_ns ~warmup:3 ~reps (fun () ->
                  Planner.solve_batch ~pool planner (planner_batch ()))))
  in
  let doc =
    J.Obj
      [ ("schema", J.String "ckpt-bench/1");
        ("git_rev", J.String (git_rev ()));
        ("workers", J.Number (float_of_int workers));
        ("benchmarks", J.List entries) ]
  in
  let path = "BENCH_results.json" in
  let oc = open_out path in
  output_string oc (J.to_string ~pretty:true doc);
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %s (%d kernels, %d workers, rev %s)\n" path
    (List.length entries) workers (git_rev ())

(* --- Table II gate (--table2-gate) --------------------------------------- *)

(* The number rule as [Printf] renders it: the oracle for the plans'
   printed floats. *)
let printf_number f =
  if not (Float.is_finite f) then "null"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else
    let shorter = Printf.sprintf "%.12g" f in
    if float_of_string shorter = f then shorter else Printf.sprintf "%.17g" f

(* The floats a problem's cache key prints, as [%.8e] ("0" for zero). *)
let key_floats (p : Optimizer.problem) =
  let overhead (o : Overhead.t) = [ o.Overhead.eps; o.Overhead.alpha ] in
  let speedup =
    match p.Optimizer.speedup.Speedup.form with
    | Speedup.Linear { kappa } -> [ kappa ]
    | Speedup.Quadratic { kappa; n_star } -> [ kappa; n_star ]
    | Speedup.Amdahl { serial_fraction; peak } | Speedup.Gustafson { serial_fraction; peak } ->
        [ serial_fraction; peak ]
    | Speedup.Custom _ -> []
  in
  [ p.Optimizer.alloc; p.Optimizer.spec.Failure_spec.baseline_scale ]
  @ List.concat_map
      (fun (l : Level.t) -> overhead l.Level.ckpt @ overhead l.Level.restart)
      (Array.to_list p.Optimizer.levels)
  @ Array.to_list p.Optimizer.spec.Failure_spec.rates_per_day
  @ speedup @ [ p.Optimizer.te ]

let printf_key x = if x = 0. then "0" else Printf.sprintf "%.8e" x

(* The renderings of [floats] that differ from [printf]'s, plus the
   calls of libc's formatter they took; each is reported. *)
let printing_failures ~what ~render ~printf floats =
  let before = Ckpt_json.Float_digits.fallbacks () in
  let differ = List.filter (fun f -> render f <> printf f) floats in
  let fallbacks = Ckpt_json.Float_digits.fallbacks () - before in
  List.iter
    (fun f -> Printf.printf "! %s %h prints %s, Printf %s\n" what f (render f) (printf f))
    differ;
  if fallbacks > 0 then Printf.printf "! %s: %d libc fallback(s)\n" what fallbacks;
  List.length differ + fallbacks

(* The number spans of a JSON text, as the tree lexer cuts them. *)
let number_spans text =
  let n = String.length text in
  let rec scan i acc =
    if i >= n then List.rev acc
    else
      match text.[i] with
      | '"' ->
          let rec close j =
            if text.[j] = '\\' then close (j + 2)
            else if text.[j] = '"' then j
            else close (j + 1)
          in
          scan (close (i + 1) + 1) acc
      | '-' | '0' .. '9' ->
          let rec stop j =
            match if j < n then text.[j] else ' ' with
            | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> stop (j + 1)
            | _ -> j
          in
          let j = stop i in
          scan j ((i, j) :: acc)
      | _ -> scan (i + 1) acc
  in
  scan 0 []

(* The numbers of [texts] that [Float_digits.read] reads other than
   [float_of_string] does, plus the spans it handed to strtod; each is
   reported. *)
let parsing_failures ~what texts =
  let before = Ckpt_json.Float_digits.fallbacks () in
  let differ =
    List.concat_map
      (fun text ->
        List.filter_map
          (fun (a, b) ->
            let got = Ckpt_json.Float_digits.read text a b
            and want = float_of_string (String.sub text a (b - a)) in
            if Int64.equal (Int64.bits_of_float got) (Int64.bits_of_float want) then None
            else Some (String.sub text a (b - a), got, want))
          (number_spans text))
      texts
  in
  let fallbacks = Ckpt_json.Float_digits.fallbacks () - before in
  List.iter
    (fun (span, got, want) -> Printf.printf "! %s %s reads %h, float_of_string %h\n" what span got want)
    differ;
  if fallbacks > 0 then Printf.printf "! %s: %d strtod fallback(s)\n" what fallbacks;
  List.length differ + fallbacks

(* CI's bench-smoke job runs this after the timing kernels: every case
   of the paper's Table II corpus is solved on both the accelerated and
   the reference path, the per-case iteration histogram is written to
   iteration-histogram.json (archived as an artifact), and the exit
   status is 1 if any accelerated solve failed plan equivalence (same
   integer scale, E(T_w) within 1e-9 relative), spent more inner
   iterations than the reference, or reported [fallbacks] other than 0
   (a plan field the solver always sets to 0) — or if a float of a plan
   or of its cache key took libc's branch or printed other than
   [Printf] prints it, or a number of the problem's or the plan's JSON
   went to strtod or read other than [float_of_string] reads it. *)
let table2_gate () =
  let cases =
    [ "16-12-8-4"; "8-6-4-2"; "4-3-2-1"; "16-8-4-2"; "8-4-2-1"; "4-2-1-0.5" ]
  in
  let violations = ref 0 in
  let entries =
    List.map
      (fun case ->
        let p = E.Paper_data.eval_problem ~te_core_days:3e6 ~case () in
        let fast = Optimizer.solve p in
        let slow = Optimizer.solve_reference p in
        let wall_rel =
          Float.abs (fast.Optimizer.wall_clock -. slow.Optimizer.wall_clock)
          /. Float.abs slow.Optimizer.wall_clock
        in
        let equivalent =
          Float.round fast.Optimizer.n = Float.round slow.Optimizer.n
          && wall_rel <= 1e-9
        in
        let printing =
          let module Fingerprint = Ckpt_service.Fingerprint in
          printing_failures ~what:(case ^ " plan") ~render:J.number_to_string
            ~printf:printf_number (plan_floats fast)
          + printing_failures ~what:(case ^ " key")
              ~render:(Fingerprint.float_repr ~precision:Fingerprint.default_precision)
              ~printf:printf_key (key_floats p)
        in
        let parsing =
          let buf = Buffer.create 1024 in
          Codec.write_plan buf fast;
          parsing_failures ~what:(case ^ " JSON")
            [ J.to_string (Codec.problem_to_json p); Buffer.contents buf ]
        in
        let ok =
          equivalent && fast.Optimizer.fallbacks = 0
          && fast.Optimizer.inner_iterations <= slow.Optimizer.inner_iterations
          && printing = 0 && parsing = 0
        in
        if not ok then incr violations;
        Printf.printf
          "%s %-10s  inner %3d vs %3d  f_evals %4d vs %4d  fallbacks %d  wall rel %.2e  \
           printing failures %d  parsing failures %d\n"
          (if ok then " " else "!") case fast.Optimizer.inner_iterations
          slow.Optimizer.inner_iterations fast.Optimizer.f_evals
          slow.Optimizer.f_evals fast.Optimizer.fallbacks wall_rel printing parsing;
        let side (plan : Optimizer.plan) =
          J.Obj
            [ ("inner_iterations", J.Number (float_of_int plan.Optimizer.inner_iterations));
              ("outer_iterations", J.Number (float_of_int plan.Optimizer.outer_iterations));
              ("f_evals", J.Number (float_of_int plan.Optimizer.f_evals));
              ("fallbacks", J.Number (float_of_int plan.Optimizer.fallbacks)) ]
        in
        J.Obj
          [ ("case", J.String case);
            ("accelerated", side fast);
            ("reference", side slow);
            ("wall_clock_rel_diff", J.Number wall_rel);
            ("plan_equivalent", J.Bool equivalent);
            ("printing_failures", J.Number (float_of_int printing));
            ("parsing_failures", J.Number (float_of_int parsing));
            ("ok", J.Bool ok) ])
      cases
  in
  let doc =
    J.Obj
      [ ("schema", J.String "ckpt-iteration-histogram/1");
        ("git_rev", J.String (git_rev ()));
        ("corpus", J.String "table2");
        ("cases", J.List entries) ]
  in
  let path = "iteration-histogram.json" in
  let oc = open_out path in
  output_string oc (J.to_string ~pretty:true doc);
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %s (%d cases, rev %s)\n" path (List.length entries) (git_rev ());
  if !violations > 0 then begin
    Printf.printf "%d Table II case(s) failed the gate\n" !violations;
    exit 1
  end

(* --- bechamel driver ----------------------------------------------------- *)

let benchmark tests =
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.3) ~kde:None () in
  let raw = Benchmark.all cfg instances tests in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |] in
  let results = List.map (fun instance -> Analyze.all ols instance raw) instances in
  Analyze.merge ols instances results

let print_bench_results results =
  let window =
    match Notty_unix.winsize Unix.stdout with
    | Some (w, h) -> { Bechamel_notty.w; h }
    | None -> { Bechamel_notty.w = 100; h = 1 }
  in
  Bechamel_notty.Unit.add Instance.monotonic_clock (Measure.unit Instance.monotonic_clock);
  let image =
    Bechamel_notty.Multiple.image_of_ols_results ~rect:window
      ~predictor:Measure.run results
  in
  Notty_unix.output_image image;
  print_newline ()

(* --- main ---------------------------------------------------------------- *)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let quick = List.mem "--quick" args in
  let json = List.mem "--json" args in
  let gate = List.mem "--table2-gate" args in
  let requested =
    List.filter (fun a -> a <> "--quick" && a <> "--json" && a <> "--table2-gate") args
  in
  if gate then table2_gate ()
  else if json then json_bench ()
  else begin
  print_endline "== Bechamel micro-benchmarks (one per paper table/figure) ==";
  print_bench_results (benchmark tests);
  print_bench_results (benchmark substrate_tests);
  if not quick then begin
    print_endline "\n== Regenerating the paper's tables and figures ==";
    let ids = if requested = [] then E.Registry.ids () else requested in
    let ppf = Format.std_formatter in
    List.iter
      (fun id ->
        match E.Registry.find id with
        | Some e ->
            e.E.Registry.run ppf;
            Format.pp_print_flush ppf ()
        | None -> Printf.printf "unknown experiment %S\n" id)
      ids
  end
  end
