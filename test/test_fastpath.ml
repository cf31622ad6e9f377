(* Contracts of the fastpath, at two layers.

   Evaluation kernels (E(T_w) through the solver's batch fill, batched
   failure sampling, the inline pool) must return results *bitwise*
   equal to the reference paths they replace.

   The solvers themselves are accelerated (superlinear scale search,
   Newton outer steps, warm outer rounds, cross-row batch seeding), so
   their contract is *plan equivalence* against the retained reference
   implementations: same integer scale, E(T_w) within 1e-9 relative,
   agreeing converged flags — in no more iterations than the reference,
   and within a pinned budget per row on server-shaped traffic.
   The reference plan is confirmed first ([solve_confirmed]), since the
   reference can stop short of its own fixed point.  Property tests draw
   random problems (plus the paper's six Table II rate cases, where the
   scale must match exactly) across warm starts and batch shapes. *)

open Ckpt_model
module Failure_spec = Ckpt_failures.Failure_spec
module Arrivals = Ckpt_failures.Arrivals
module Rng = Ckpt_numerics.Rng
module Dist = Ckpt_numerics.Dist
module Draw_buffer = Ckpt_fastpath.Draw_buffer
module Pool = Ckpt_parallel.Pool
open Oracle

let table2_cases =
  [ "16-12-8-4"; "8-6-4-2"; "4-3-2-1"; "16-8-4-2"; "8-4-2-1"; "4-2-1-0.5" ]

let problem ?(case = "16-12-8-4") ?(te_core_days = 3e6) ?(alloc = 60.) () =
  { Optimizer.te = te_core_days *. 86400.;
    speedup = Speedup.quadratic ~kappa:0.46 ~n_star:1e6;
    levels = Level.fti_fusion;
    alloc;
    spec = Failure_spec.of_string ~baseline_scale:1e6 case }

let params_of (p : Optimizer.problem) ~estimate =
  { Multilevel.te = p.Optimizer.te;
    speedup = p.Optimizer.speedup;
    levels = p.Optimizer.levels;
    alloc = p.Optimizer.alloc;
    mus =
      Array.init
        (Array.length p.Optimizer.levels)
        (fun i ->
          Scale_fn.linear
            ~slope:
              (Failure_spec.rate_per_second' p.Optimizer.spec ~level:(i + 1)
              *. estimate)
            ()) }

(* ---------------- draw buffer units ---------------- *)

let test_draw_buffer_matches_direct () =
  List.iter
    (fun capacity ->
      let law_pairs =
        [ ( Draw_buffer.Exponential { rate = 3.5e-5 },
            fun rng -> Dist.exponential rng ~rate:3.5e-5 );
          ( Draw_buffer.Weibull { shape = 0.7; scale = 2e4 },
            fun rng -> Dist.weibull rng ~shape:0.7 ~scale:2e4 ) ]
      in
      List.iteri
        (fun j (law, direct) ->
          let b = Draw_buffer.create ~capacity ~rng:(Rng.of_int (17 + j)) law in
          let rng = Rng.of_int (17 + j) in
          for k = 0 to 199 do
            let got = Draw_buffer.next b and want = direct rng in
            if not (same_bits got want) then
              Alcotest.failf "draw %d (capacity %d, law %d): %h <> %h" k capacity
                j got want
          done)
        law_pairs)
    [ 1; 3; 64 ]

let test_draw_buffer_validation () =
  let bad f = Alcotest.(check bool) "rejected" true (try f () |> ignore; false with Invalid_argument _ -> true) in
  bad (fun () -> Draw_buffer.create ~capacity:0 ~rng:(Rng.of_int 1) (Draw_buffer.Exponential { rate = 1. }));
  bad (fun () -> Draw_buffer.create ~rng:(Rng.of_int 1) (Draw_buffer.Exponential { rate = 0. }));
  bad (fun () -> Draw_buffer.create ~rng:(Rng.of_int 1) (Draw_buffer.Weibull { shape = 0.; scale = 1. }))

(* ---------------- solver plan equivalence ---------------- *)

let test_table2_solves_plan_equivalent () =
  List.iter
    (fun case ->
      let p = problem ~case () in
      check_equiv_plan ~strict_n:true case (Optimizer.solve p)
        (solve_confirmed p);
      check_equiv_plan ~strict_n:true (case ^ " fixed_n")
        (Optimizer.solve ~fixed_n:5e5 p)
        (solve_confirmed ~fixed_n:5e5 p))
    table2_cases

(* Two problems on which the plain reference stops short of its fixed
   point (E(T_w) ~2e-7 relative off), found as qcheck counterexamples:
   the solver must land on the confirmed plan, alone and as rows of
   one batch (the second row warm-started from the first). *)
let test_oracle_stops_short () =
  let cases =
    [ ("4-2-1-0.5", 404337568463.6402); ("8-6-4-2", 296091320397.57513) ]
  in
  let problems =
    List.map (fun (case, te) -> (case, { (problem ~case ()) with Optimizer.te })) cases
  in
  let rows =
    Optimizer.solve_batch
      (Array.of_list (List.map (fun (_, p) -> Optimizer.batch_job p) problems))
  in
  List.iteri
    (fun i (case, p) ->
      let want = solve_confirmed p in
      check_equiv_plan ~strict_n:true case (Optimizer.solve p) want;
      check_equiv_plan ~strict_n:true (case ^ " batch row") rows.(i) want)
    problems

(* A converged plan is a fixed point of the solver: re-solved from its
   own plan ([solve ~warm]), a problem must come back on the same scale
   bits with E(T_w) within 1e-12 relative, in at most two outer rounds —
   the warm round that finds the drift already converged and, for a
   free scale, the cold round that confirms it. *)
let check_fixed_point msg p =
  let plan = Optimizer.solve p in
  let again = Optimizer.solve ~warm:plan p in
  if
    not
      (same_bits again.Optimizer.n plan.Optimizer.n
      && rel_close ~tol:1e-12 again.Optimizer.wall_clock plan.Optimizer.wall_clock
      && again.Optimizer.outer_iterations <= 2)
  then
    Alcotest.failf
      "%s: re-solved from its own plan, n %.17g -> %.17g, Ew %h -> %h in %d \
       outer rounds"
      msg plan.Optimizer.n again.Optimizer.n plan.Optimizer.wall_clock
      again.Optimizer.wall_clock again.Optimizer.outer_iterations

let test_table2_plans_are_fixed_points () =
  List.iter (fun case -> check_fixed_point case (problem ~case ())) table2_cases

(* The Table II grid: the six rate cases at te {1e5, 5e5, 3e6, 1e7}
   core-days and alloc {10, 60, 300, 600} s, each on the confirmed
   reference's exact scale, solved alone and as the rows of one batch
   (which warm-starts each row from its neighbour).  Three of these
   optima — 4-3-2-1 at (3e6, 60), 16-8-4-2 at (1e5, 10) and (1e5, 300)
   — sit so close to a bisection-cell boundary that a plan taken from a
   warm round, whose xs carry the seeding path's tolerance-sized noise,
   lands in the neighbouring cell; the cold confirmation round is what
   keeps them on the reference's scale. *)
let test_table2_grid_strict () =
  let grid =
    List.concat_map
      (fun case ->
        List.concat_map
          (fun te_core_days ->
            List.map
              (fun alloc ->
                ( Printf.sprintf "%s te %g alloc %g" case te_core_days alloc,
                  problem ~case ~te_core_days ~alloc () ))
              [ 10.; 60.; 300.; 600. ])
          [ 1e5; 5e5; 3e6; 1e7 ])
      table2_cases
  in
  let rows =
    Optimizer.solve_batch
      (Array.of_list (List.map (fun (_, p) -> Optimizer.batch_job p) grid))
  in
  List.iteri
    (fun i (name, p) ->
      let want = solve_confirmed p in
      check_equiv_plan ~strict_n:true name (Optimizer.solve p) want;
      check_equiv_plan ~strict_n:true (name ^ " batch row") rows.(i) want)
    grid

(* The acceleration must actually accelerate: on every Table II case the
   fast path spends no more inner iterations (and strictly fewer in
   aggregate) than the reference, and its plans report [fallbacks] 0 —
   the same invariant CI's bench-smoke gate enforces on this corpus. *)
let test_table2_iteration_monotonicity () =
  let total_fast = ref 0 and total_slow = ref 0 in
  List.iter
    (fun case ->
      let p = problem ~case () in
      let fast = Optimizer.solve p and slow = Optimizer.solve_reference p in
      if fast.Optimizer.inner_iterations > slow.Optimizer.inner_iterations then
        Alcotest.failf "%s: accelerated solve used %d inner iterations vs %d"
          case fast.Optimizer.inner_iterations slow.Optimizer.inner_iterations;
      if fast.Optimizer.fallbacks > 0 then
        Alcotest.failf "%s: %d fallbacks on a Table II case" case
          fast.Optimizer.fallbacks;
      if fast.Optimizer.f_evals > slow.Optimizer.f_evals then
        Alcotest.failf "%s: accelerated solve used %d f_evals vs %d" case
          fast.Optimizer.f_evals slow.Optimizer.f_evals;
      total_fast := !total_fast + fast.Optimizer.inner_iterations;
      total_slow := !total_slow + slow.Optimizer.inner_iterations)
    table2_cases;
  if !total_fast >= !total_slow then
    Alcotest.failf "no aggregate iteration win: %d fast vs %d reference"
      !total_fast !total_slow

let test_wall_clock_fast_bit_identical () =
  let p = problem () and estimate = 40. *. 86400. in
  let params = params_of p ~estimate in
  List.iter
    (fun (xs, n) ->
      let want = Multilevel.expected_wall_clock params ~xs ~n in
      let got = Optimizer.expected_wall_clock p ~estimate ~xs ~n in
      if not (same_bits got want) then
        Alcotest.failf "E(Tw) at n=%g: %h <> %h" n got want)
    [ ([| 1000.; 500.; 200.; 50. |], 5e5);
      ([| 1.; 1.; 1.; 1. |], 1e3);
      ([| 17.3; 5.9; 88.1; 2.2 |], 9.7e5) ]

(* The Table II rate patterns, failures per day per level. *)
let rate_patterns =
  [ [| 16.; 12.; 8.; 4. |]; [| 8.; 6.; 4.; 2. |]; [| 4.; 3.; 2.; 1. |];
    [| 16.; 8.; 4.; 2. |]; [| 8.; 4.; 2.; 1. |]; [| 4.; 2.; 1.; 0.5 |] ]

(* Free-scale problems drawn like the benchmark's cold-solve traffic:
   a quadratic speedup peaking at n_star, a Table II rate pattern scaled
   0.5-2x at that scale, FTI's four levels. *)
let free_scale_draw =
  let open QCheck.Gen in
  let log_uniform lo hi = map exp (float_range (log lo) (log hi)) in
  QCheck.make
    ~print:(fun p -> Ckpt_json.Json.to_string (Codec.problem_to_json p))
    (map
       (fun ((n_star, factor, pattern), (te_core_days, kappa, alloc)) ->
         { Optimizer.te = te_core_days *. 86_400.;
           speedup = Speedup.quadratic ~kappa ~n_star;
           levels = Level.fti_fusion;
           alloc;
           spec =
             Failure_spec.v ~baseline_scale:n_star
               (Array.map (( *. ) factor) pattern) })
       (pair
          (triple (log_uniform 2e5 2e6) (float_range 0.5 2.) (oneofl rate_patterns))
          (triple (log_uniform 5e5 5e6) (float_range 0.35 0.6)
             (float_range 20. 120.))))

let qcheck_tests =
  let open QCheck in
  let case = oneofl table2_cases in
  [ Test.make ~name:"solve is plan-equivalent to solve_reference" ~count:60
      (triple case (float_range 1e5 1e7) (float_range 10. 600.))
      (fun (case, te_core_days, alloc) ->
        let p = problem ~case ~te_core_days ~alloc () in
        let fast = Optimizer.solve p and slow = Optimizer.solve_reference p in
        (* The work bounds, against the plain reference run, catch the
           accelerated path ever degenerating below the plain iteration:
           over random te and alloc it has spent well under the
           reference's inner iterations and Eq. 24 evaluations. *)
        plan_equiv fast (solve_confirmed p)
        && fast.Optimizer.inner_iterations <= slow.Optimizer.inner_iterations
        && fast.Optimizer.f_evals <= slow.Optimizer.f_evals);
    Test.make ~name:"solve with fixed_n and warm stays plan-equivalent"
      ~count:40
      (quad case (float_range 1e4 9e5) (float_range 1. 3.) (float_range 0.8 1.25))
      (fun (case, fixed_n, x0, ratio) ->
        (* The seed is a neighbouring problem's plan at a neighbouring
           scale, with intervals far below the optimum; the pinned
           solve must still land on the cold reference plan. *)
        let p = problem ~case () in
        let neighbour =
          Optimizer.solve ~fixed_n:(fixed_n *. ratio)
            { p with Optimizer.te = p.Optimizer.te *. ratio }
        in
        let warm =
          { neighbour with Optimizer.xs = [| x0; x0 *. 2.; x0 *. 7.; x0 |] }
        in
        let fast = Optimizer.solve ~fixed_n ~warm p in
        let slow = Optimizer.solve_reference ~fixed_n p in
        plan_equiv fast (solve_confirmed ~fixed_n p)
        && fast.Optimizer.inner_iterations <= slow.Optimizer.inner_iterations);
    Test.make ~name:"full Algorithm 1 solve is plan-equivalent" ~count:25
      (pair case (float_range 5e5 5e6))
      (fun (case, te_core_days) ->
        let p = problem ~case ~te_core_days () in
        let fast = Optimizer.solve p and slow = Optimizer.solve_reference p in
        plan_equiv fast (solve_confirmed p)
        && fast.Optimizer.inner_iterations <= slow.Optimizer.inner_iterations);
    Test.make ~name:"warm solve lands on the cold reference plan" ~count:25
      (quad case (float_range 5e5 5e6) (float_range 0.8 1.25)
         (oneofl [ `Good; `N_nan; `N_inf; `N_half; `Xs_nan ]))
      (fun (case, te_core_days, ratio, seed) ->
        (* A plan for a neighbouring problem (te scaled by [ratio]) seeds
           the solve; the result must still be the reference's plan for
           the *unseeded* problem.  Bad seeds — a non-finite or < 1
           scale, a non-finite interval — must be discarded component by
           component, as the reference's [init] does, not carried into
           the iteration. *)
        let p = problem ~case ~te_core_days () in
        let neighbour = { p with Optimizer.te = p.Optimizer.te *. ratio } in
        let warm = Optimizer.solve neighbour in
        let warm =
          match seed with
          | `Good -> warm
          | `N_nan -> { warm with Optimizer.n = Float.nan }
          | `N_inf -> { warm with Optimizer.n = Float.infinity }
          | `N_half -> { warm with Optimizer.n = 0.5 }
          | `Xs_nan ->
              let xs = Array.copy warm.Optimizer.xs in
              xs.(1) <- Float.nan;
              { warm with Optimizer.xs }
        in
        plan_equiv (Optimizer.solve ~warm p) (solve_confirmed p));
    Test.make ~name:"solve_batch rows are plan-equivalent to solve_reference"
      ~count:20
      (small_list
         (triple case (float_range 5e5 5e6) (option (float_range 1e4 9e5))))
      (fun specs ->
        let jobs =
          Array.of_list
            (List.map
               (fun (case, te_core_days, fixed_n) ->
                 Optimizer.batch_job ?fixed_n (problem ~case ~te_core_days ()))
               specs)
        in
        let plans = Optimizer.solve_batch jobs in
        Array.length plans = Array.length jobs
        && Array.for_all2
             (fun (plan : Optimizer.plan) (j : Optimizer.batch_job) ->
               let want =
                 solve_confirmed ~delta:j.Optimizer.delta
                   ?fixed_n:j.Optimizer.fixed_n j.Optimizer.problem
               in
               plan_equiv plan want)
             plans jobs);
    Test.make ~name:"E(Tw) workspace evaluation is bit-identical" ~count:100
      (triple
         (quad (float_range 1. 1e4) (float_range 1. 5e3) (float_range 1. 1e3)
            (float_range 1. 200.))
         (float_range 1e3 9e5)
         (oneofl
            [ Speedup.quadratic ~kappa:0.46 ~n_star:1e6;
              Speedup.amdahl ~serial_fraction:2e-6 ~peak:8e5;
              Speedup.gustafson ~serial_fraction:0.05 ~peak:6e5;
              Speedup.linear ~kappa:0.46 ]))
      (fun ((x1, x2, x3, x4), n, speedup) ->
        (* Every arm of the solver's speedup fill (quadratic, Amdahl, and
           the shape-dispatched law behind Gustafson and linear) against
           the closure-evaluated reference. *)
        let p = { (problem ()) with Optimizer.speedup } in
        let estimate = 40. *. 86400. in
        let xs = [| x1; x2; x3; x4 |] in
        same_bits
          (Optimizer.expected_wall_clock p ~estimate ~xs ~n)
          (Multilevel.expected_wall_clock (params_of p ~estimate) ~xs ~n));
    Test.make ~name:"batched arrivals equal unbatched draw-for-draw" ~count:40
      (triple (int_range 0 1_000_000) (oneofl table2_cases) (float_range 1e4 9e5))
      (fun (seed, case, scale) ->
        let spec = Failure_spec.of_string ~baseline_scale:1e6 case in
        let laws =
          [| Arrivals.Exponential; Arrivals.Weibull { shape = 0.8 };
             Arrivals.Exponential; Arrivals.Weibull { shape = 1.4 } |]
        in
        let seq batched =
          Arrivals.sequence
            (Arrivals.create ~laws ~batched ~rng:(Rng.of_int seed) ~spec ~scale ())
            ~horizon:1e7
        in
        let a = seq true and b = seq false in
        List.length a = List.length b
        && List.for_all2
             (fun (x : Arrivals.event) (y : Arrivals.event) ->
               same_bits x.Arrivals.at y.Arrivals.at
               && x.Arrivals.level = y.Arrivals.level)
             a b);
    Test.make ~name:"a converged free-scale plan is a fixed point" ~count:200
      free_scale_draw
      (fun p ->
        check_fixed_point "drawn problem" p;
        true) ]

(* [solve_batch] on the planner kernel's shape: one shared problem (so
   the scale-ordered walk exercises cross-row cost sharing and warm
   seeding between neighbours), a fixed-n grid in scrambled input order
   (warm sources then precede *and* follow their seeds in input order),
   plus mixed rows — free scale, the single-level collapse and a
   non-default delta.  Each row must be plan-equivalent to the reference
   solve of that job alone. *)
let test_solve_batch_mixed () =
  let p = problem () in
  let sl = Optimizer.single_level_problem p in
  let grid =
    Array.init 16 (fun i ->
        let i = (i * 7) mod 16 in
        Optimizer.batch_job ~fixed_n:(2e5 +. (float_of_int i *. 1e3)) p)
  in
  let mixed =
    [| Optimizer.batch_job p;
       Optimizer.batch_job sl;
       Optimizer.batch_job ~delta:1e-6 p;
       Optimizer.batch_job ~fixed_n:3e5 sl |]
  in
  let jobs = Array.append grid mixed in
  let plans = Optimizer.solve_batch jobs in
  Array.iteri
    (fun i (j : Optimizer.batch_job) ->
      check_equiv_plan ~strict_n:true
        (Printf.sprintf "batch row %d" i)
        plans.(i)
        (solve_confirmed ~delta:j.Optimizer.delta ?fixed_n:j.Optimizer.fixed_n
           j.Optimizer.problem))
    jobs;
  (* A row pinned below scale 1 seeds the free-scale row after it in the
     walk: the seed is checked exactly as [solve ~warm] checks a
     caller's plan (its scale discarded), so both land on the same bits. *)
  let below = Optimizer.solve_batch [| Optimizer.batch_job ~fixed_n:0.5 p;
                                       Optimizer.batch_job p |] in
  let alone = Optimizer.solve ~warm:below.(0) p in
  Alcotest.(check bool) "batch seeding = solve ~warm seeding" true
    (same_bits below.(1).Optimizer.wall_clock alone.Optimizer.wall_clock
     && same_bits below.(1).Optimizer.n alone.Optimizer.n
     && below.(1).Optimizer.inner_iterations = alone.Optimizer.inner_iterations);
  check_equiv_plan ~strict_n:true "free row seeded below scale 1" below.(1)
    (solve_confirmed p);
  Alcotest.(check int) "empty batch" 0 (Array.length (Optimizer.solve_batch [||]))

(* Two problems parsed from the same JSON have equal level arrays that
   are not shared.  Warm starts across rows need the same hierarchy
   physically, so neither row seeds the other — the batch must not
   compare the arrays structurally (each level carries overhead-law
   closures, which [compare] refuses) — and each row is bitwise the
   plan its own one-row solve returns. *)
let test_separately_parsed_rows () =
  let text = Ckpt_json.Json.to_string (Codec.problem_to_json (problem ())) in
  let parse () =
    match Codec.problem_of_json (Ckpt_json.Json.parse text) with
    | Ok p -> p
    | Error m -> Alcotest.fail m
  in
  let a = parse () and b = parse () and c = parse () in
  Alcotest.(check bool) "level arrays not shared" false
    (a.Optimizer.levels == b.Optimizer.levels || b.Optimizer.levels == c.Optimizer.levels);
  let bits (plan : Optimizer.plan) = Marshal.to_string plan [] in
  let rows =
    [| Optimizer.batch_job ~fixed_n:2e5 a;
       Optimizer.batch_job ~fixed_n:2.1e5 b;
       Optimizer.batch_job c |]
  in
  let plans = Optimizer.solve_batch rows in
  Array.iteri
    (fun i (j : Optimizer.batch_job) ->
      Alcotest.(check bool)
        (Printf.sprintf "row %d = its one-row solve, bitwise" i)
        true
        (bits plans.(i)
        = bits (Optimizer.solve ?fixed_n:j.Optimizer.fixed_n j.Optimizer.problem)))
    rows

(* ---------------- solver work on server-shaped rows ---------------- *)

(* The cold-solve traffic a server sees, request by request, from a fixed
   seed: 60% one-row plans, 25% batches of 16 rows, 15% sweeps of one
   problem over 8 te points (te * (1 + 0.05 j)).  Every problem is drawn
   like [free_scale_draw] and passes through the JSON codec, as a parsed
   request does, so it has a level array of its own: rows of different
   problems never seed each other, while a sweep's 8 rows share their
   problem's levels and solve as one warm-started batch.  Returns each
   request's jobs and plans. *)
let cold_solve_requests ~rows =
  let rng = Random.State.make [| 23 |] in
  let uniform lo hi = lo +. Random.State.float rng (hi -. lo) in
  let log_uniform lo hi = exp (uniform (log lo) (log hi)) in
  let parsed p =
    let text = Ckpt_json.Json.to_string (Codec.problem_to_json p) in
    match Codec.problem_of_json (Ckpt_json.Json.parse text) with
    | Ok p -> p
    | Error m -> Alcotest.fail m
  in
  let draw () =
    let n_star = log_uniform 2e5 2e6 in
    let factor = uniform 0.5 2. in
    let pattern =
      List.nth rate_patterns (Random.State.int rng (List.length rate_patterns))
    in
    let te = log_uniform 5e5 5e6 *. 86_400. in
    let kappa = uniform 0.35 0.6 in
    let alloc = uniform 20. 120. in
    parsed
      { Optimizer.te;
        speedup = Speedup.quadratic ~kappa ~n_star;
        levels = Level.fti_fusion;
        alloc;
        spec =
          Failure_spec.v ~baseline_scale:n_star (Array.map (( *. ) factor) pattern) }
  in
  let rec go acc solved =
    if solved >= rows then List.rev acc
    else begin
      let roll = Random.State.int rng 100 in
      let jobs =
        if roll < 60 then [| Optimizer.batch_job (draw ()) |]
        else if roll < 85 then Array.init 16 (fun _ -> Optimizer.batch_job (draw ()))
        else
          let p = draw () in
          Array.init 8 (fun j ->
              let te = p.Optimizer.te *. (1. +. (0.05 *. float_of_int j)) in
              Optimizer.batch_job { p with Optimizer.te })
      in
      go ((jobs, Optimizer.solve_batch jobs) :: acc) (solved + Array.length jobs)
    end
  in
  go [] 0

(* Solver work per row on that traffic, which no bench kernel draws:
   [solve-batch-free-scale]'s 16 rows share one level array, so they seed
   each other, which separately parsed problems never do.  The bounds are
   2% above the means measured on these 2,011 rows: 31.57 inner
   iterations and 209.11 Eq. 24 evaluations per row.  Every row must
   converge, and every 20th row must be plan-equivalent to the confirmed
   reference. *)
let test_cold_solve_rows_work () =
  let requests = cold_solve_requests ~rows:2_000 in
  let rows = ref 0 and inner = ref 0 and f_evals = ref 0 in
  List.iter
    (fun (jobs, plans) ->
      Array.iteri
        (fun i (plan : Optimizer.plan) ->
          let j = jobs.(i) in
          if not (plan.Optimizer.converged && Float.is_finite plan.Optimizer.wall_clock)
          then Alcotest.failf "row %d did not converge" !rows;
          if !rows mod 20 = 0 then
            check_equiv_plan ~strict_n:false
              (Printf.sprintf "row %d" !rows)
              plan (solve_confirmed j.Optimizer.problem);
          incr rows;
          inner := !inner + plan.Optimizer.inner_iterations;
          f_evals := !f_evals + plan.Optimizer.f_evals)
        plans)
    requests;
  let mean n = float_of_int n /. float_of_int !rows in
  let bounded what got measured =
    if got > measured *. 1.02 then
      Alcotest.failf "%s per row %.3f, more than 2%% above the measured %g" what
        got measured
  in
  bounded "inner iterations" (mean !inner) 31.57;
  bounded "Eq. 24 evaluations" (mean !f_evals) 209.11

(* ---------------- batched simulation across worker counts ------------- *)

let test_batched_replication_outcomes () =
  let p = problem () in
  let plan = Optimizer.ml_ori_scale ~n:5e5 p in
  let config =
    Ckpt_sim.Run_config.of_plan ~semantics:Ckpt_sim.Run_config.paper_semantics
      ~problem:p ~plan ()
  in
  let runs = 12 and base_seed = 42 in
  (* Reference: unbatched sampling, run sequentially on the same
     substream family Replication uses. *)
  let rngs = Rng.streams ~n:runs (Rng.of_int base_seed) in
  let reference =
    Array.init runs (fun i ->
        Ckpt_sim.Engine.run ~rng:rngs.(i) ~batched:false ~seed:(base_seed + i)
          config)
  in
  let check label outcomes =
    Array.iteri
      (fun i (o : Ckpt_sim.Outcome.t) ->
        let r = reference.(i) in
        let ok =
          o.Ckpt_sim.Outcome.completed = r.Ckpt_sim.Outcome.completed
          && same_bits o.Ckpt_sim.Outcome.wall_clock r.Ckpt_sim.Outcome.wall_clock
          && same_bits o.Ckpt_sim.Outcome.productive r.Ckpt_sim.Outcome.productive
          && same_bits o.Ckpt_sim.Outcome.rollback r.Ckpt_sim.Outcome.rollback
          && o.Ckpt_sim.Outcome.failures = r.Ckpt_sim.Outcome.failures
          && o.Ckpt_sim.Outcome.ckpts_written = r.Ckpt_sim.Outcome.ckpts_written
        in
        if not ok then Alcotest.failf "%s: run %d differs from unbatched" label i)
      outcomes
  in
  check "no pool" (Ckpt_sim.Replication.outcomes ~runs ~base_seed config);
  List.iter
    (fun workers ->
      Pool.with_pool ~workers (fun pool ->
          check
            (Printf.sprintf "%d workers" workers)
            (Ckpt_sim.Replication.outcomes ~pool ~runs ~base_seed config)))
    [ 1; 2; 4 ]

(* ---------------- inline single-worker pool ---------------- *)

let test_inline_pool_matches_array_map () =
  Pool.with_pool ~workers:1 (fun pool ->
      let xs = Array.init 100 Fun.id in
      Alcotest.(check (array int))
        "map = Array.map" (Array.map (fun x -> x * x) xs)
        (Pool.map pool ~f:(fun x -> x * x) xs);
      Alcotest.(check int) "workers" 1 (Pool.workers pool))

exception Boom of int

let test_inline_pool_error_contract () =
  Pool.with_pool ~workers:1 (fun pool ->
      let ran = ref 0 in
      let attempt () =
        Pool.map pool
          ~f:(fun x ->
            incr ran;
            if x mod 3 = 1 then raise (Boom x) else x)
          (Array.init 9 Fun.id)
      in
      (match attempt () with
      | _ -> Alcotest.fail "expected Boom"
      | exception Boom x -> Alcotest.(check int) "lowest failing index" 1 x);
      Alcotest.(check int) "every item still ran" 9 !ran)

let () =
  Alcotest.run "ckpt_fastpath"
    [ ( "units",
        [ Alcotest.test_case "draw buffer = direct draws" `Quick
            test_draw_buffer_matches_direct;
          Alcotest.test_case "draw buffer validation" `Quick
            test_draw_buffer_validation ] );
      ( "plan-equivalence",
        [ Alcotest.test_case "six Table II cases" `Quick
            test_table2_solves_plan_equivalent;
          Alcotest.test_case "Table II iteration monotonicity" `Quick
            test_table2_iteration_monotonicity;
          Alcotest.test_case "batch solve, mixed jobs" `Quick
            test_solve_batch_mixed;
          Alcotest.test_case "reference stopping short" `Quick
            test_oracle_stops_short;
          Alcotest.test_case "Table II plans are fixed points" `Quick
            test_table2_plans_are_fixed_points;
          Alcotest.test_case "Table II grid, strict scale" `Quick
            test_table2_grid_strict ] );
      ( "bit-identity",
        [ Alcotest.test_case "E(Tw) evaluation" `Quick
            test_wall_clock_fast_bit_identical;
          Alcotest.test_case "separately parsed hierarchies solve alone" `Quick
            test_separately_parsed_rows ] );
      ( "solver-work",
        [ Alcotest.test_case "cold-solve-shaped rows" `Quick
            test_cold_solve_rows_work ] );
      ( "simulation",
        [ Alcotest.test_case "batched replication at 1/2/4 workers" `Quick
            test_batched_replication_outcomes ] );
      ( "pool",
        [ Alcotest.test_case "inline map" `Quick test_inline_pool_matches_array_map;
          Alcotest.test_case "inline error contract" `Quick
            test_inline_pool_error_contract ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_tests) ]
