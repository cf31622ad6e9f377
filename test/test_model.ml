(* Tests for the paper's analytic model: speedup laws, overhead laws, the
   single-level and multilevel formulas, the optimizers and the baselines.
   Several tests pin the paper's published numbers (Fig. 3, Table II). *)

open Ckpt_model
module Failure_spec = Ckpt_failures.Failure_spec
module Derivative = Ckpt_numerics.Derivative

let check_close ?(tol = 1e-6) msg expected actual =
  Alcotest.(check (float tol)) msg expected actual

let check_rel ?(tol = 1e-3) msg expected actual =
  if expected = 0. then check_close ~tol msg expected actual
  else
    Alcotest.(check bool)
      (Printf.sprintf "%s (expected %g, got %g)" msg expected actual)
      true
      (Float.abs (actual -. expected) /. Float.abs expected <= tol)

(* ---------------- Scale_fn ---------------- *)

let test_scale_fn_combinators () =
  let f = Scale_fn.add (Scale_fn.const 2.) (Scale_fn.linear ~slope:3. ()) in
  check_close "value" 14. (f.Scale_fn.f 4.);
  check_close "derivative" 3. (f.Scale_fn.f' 4.);
  let g = Scale_fn.scale 2. f in
  check_close "scaled value" 28. (g.Scale_fn.f 4.);
  check_close "scaled derivative" 6. (g.Scale_fn.f' 4.)

let test_scale_fn_of_fun () =
  let f = Scale_fn.of_fun (fun x -> x *. x) in
  check_close ~tol:1e-3 "numeric derivative" 20. (f.Scale_fn.f' 10.)

let test_scale_fn_check_derivative () =
  Alcotest.(check bool) "good derivative passes" true
    (Scale_fn.check_derivative (Scale_fn.linear ~slope:2. ()));
  let broken = Scale_fn.opaque ~f:(fun x -> x *. x) ~f':(fun _ -> 0.) in
  Alcotest.(check bool) "broken derivative fails" false (Scale_fn.check_derivative broken)

(* ---------------- Speedup ---------------- *)

let test_speedup_linear () =
  let s = Speedup.linear ~kappa:0.5 in
  check_close "g" 50. (Speedup.eval s 100.);
  check_close "g'" 0.5 (Speedup.eval' s 100.);
  Alcotest.(check bool) "no peak" true (s.Speedup.n_ideal = None);
  check_close "productive time" 20. (Speedup.productive_time s ~te:1000. ~n:100.)

let test_speedup_quadratic_shape () =
  let s = Speedup.quadratic ~kappa:0.46 ~n_star:1e5 in
  (* Slope at the origin is kappa. *)
  check_rel ~tol:1e-3 "slope at origin" 0.46 (Speedup.eval s 1e-3 /. 1e-3);
  (* Peak value is kappa * n_star / 2 at n_star. *)
  check_close ~tol:1e-6 "peak value" (0.46 *. 1e5 /. 2.) (Speedup.eval s 1e5);
  check_close ~tol:1e-9 "derivative zero at peak" 0. (Speedup.eval' s 1e5);
  Alcotest.(check bool) "derivative positive before peak" true (Speedup.eval' s 5e4 > 0.)

let test_speedup_quadratic_paper_example () =
  (* Paper Section III-C.2: speedup 77 at 160 cores gives kappa ~ 0.48. *)
  let s = Speedup.quadratic ~kappa:0.46 ~n_star:1e5 in
  let g160 = Speedup.eval s 160. in
  Alcotest.(check bool) "close to 73" true (g160 > 72. && g160 < 75.)

let test_speedup_amdahl () =
  let s = Speedup.amdahl ~serial_fraction:0.05 ~peak:1e4 in
  check_rel ~tol:0.01 "amdahl limit at large n" 19.98 (Speedup.eval s 1e4);
  Alcotest.(check bool) "monotone" true (Speedup.eval s 100. < Speedup.eval s 1000.);
  Alcotest.(check bool) "derivative check" true (Scale_fn.check_derivative s.Speedup.law)

let test_speedup_gustafson () =
  let s = Speedup.gustafson ~serial_fraction:0.1 ~peak:1e4 in
  check_close "scaled speedup" (0.1 +. (0.9 *. 100.)) (Speedup.eval s 100.)

let test_speedup_of_fit () =
  let s = Speedup.of_quadratic_fit ~kappa:0.46 ~quad_coefficient:(-2.3e-6) in
  check_close ~tol:1. "n_star recovered" 1e5
    (Speedup.search_upper_bound s ~default:0.)

let test_speedup_derivatives_numeric () =
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (Printf.sprintf "analytic = numeric for %s" (Speedup.name s))
        true
        (Scale_fn.check_derivative s.Speedup.law))
    [ Speedup.linear ~kappa:0.3;
      Speedup.quadratic ~kappa:0.46 ~n_star:1e6;
      Speedup.amdahl ~serial_fraction:0.02 ~peak:1e5;
      Speedup.gustafson ~serial_fraction:0.1 ~peak:1e5 ]

(* ---------------- Overhead ---------------- *)

let test_overhead_laws () =
  let c = Overhead.constant 5. in
  check_close "constant" 5. (Overhead.cost c 1e6);
  check_close "constant derivative" 0. (Overhead.cost' c 1e6);
  let l = Overhead.linear ~eps:5.5 ~alpha:0.0212 in
  check_close "linear at 1024" (5.5 +. (0.0212 *. 1024.)) (Overhead.cost l 1024.);
  check_close "linear derivative" 0.0212 (Overhead.cost' l 1024.)

let test_overhead_fit_table2 () =
  (* Re-fit the paper's Table II data; levels 1-3 snap to their means. *)
  let scales = [| 128.; 256.; 384.; 512.; 1024. |] in
  let level1 = Overhead.fit ~snap:1e-3 ~scales ~costs:[| 0.9; 0.67; 0.67; 0.99; 1.1 |] () in
  check_close ~tol:1e-3 "eps1 = column mean" 0.866 level1.Overhead.eps;
  check_close "alpha1 snapped" 0. level1.Overhead.alpha;
  let level4 = Overhead.fit ~snap:1e-3 ~scales ~costs:[| 7.; 8.1; 14.3; 21.3; 25.15 |] () in
  check_rel ~tol:0.03 "eps4 ~ 5.5" 5.5 level4.Overhead.eps;
  check_rel ~tol:0.02 "alpha4 ~ 0.0212" 0.0212 level4.Overhead.alpha

let test_overhead_fit_exact_line () =
  let scales = [| 1.; 2.; 3.; 4. |] in
  let costs = Array.map (fun n -> 2. +. (0.5 *. n)) scales in
  let fit = Overhead.fit ~scales ~costs () in
  check_close "eps" 2. fit.Overhead.eps;
  check_close "alpha" 0.5 fit.Overhead.alpha

(* ---------------- Level ---------------- *)

let test_fti_fusion_levels () =
  Alcotest.(check int) "four levels" 4 (Array.length Level.fti_fusion);
  check_close "level 1 cost" 0.866 (Overhead.cost Level.fti_fusion.(0).Level.ckpt 1e6);
  check_rel ~tol:1e-6 "level 4 write grows" (5.5 +. (0.0212 *. 1e6))
    (Overhead.cost Level.fti_fusion.(3).Level.ckpt 1e6);
  (* Restart reads stay at the characterized cost. *)
  check_close ~tol:1e-9 "level 4 restart constant"
    (5.5 +. (0.0212 *. 1024.))
    (Overhead.cost Level.fti_fusion.(3).Level.restart 1e6)

(* ---------------- Single_level: paper Fig. 3 ---------------- *)

let fig3_params ~linear_cost =
  let level =
    if linear_cost then Level.v (Overhead.linear ~eps:5. ~alpha:0.005)
    else Level.v (Overhead.constant 5.)
  in
  { Single_level.te = 4000. *. 86400.;
    speedup = Speedup.quadratic ~kappa:0.46 ~n_star:1e5;
    level;
    alloc = 0.;
    mu = Scale_fn.linear ~slope:0.005 () }

let test_fig3_constant_cost_optimum () =
  let s = Single_level.optimize (fig3_params ~linear_cost:false) in
  Alcotest.(check bool) "converged" true s.Single_level.converged;
  check_rel ~tol:2e-3 "x* = 797 (paper)" 797. s.Single_level.x;
  check_rel ~tol:2e-4 "N* = 81746 (paper)" 81746. s.Single_level.n

let test_fig3_linear_cost_optimum () =
  let s = Single_level.optimize (fig3_params ~linear_cost:true) in
  check_rel ~tol:5e-3 "x* = 140 (paper)" 140. s.Single_level.x;
  check_rel ~tol:2e-4 "N* = 20215 (paper)" 20215. s.Single_level.n

let test_closed_forms_match_optimizer () =
  (* Linear speedup, constant costs: Eq. (10)/(11) give the optimum in
     closed form; the iterative optimizer must agree. *)
  let te = 1e6 *. 86400. and kappa = 0.8 and b = 1e-4 and eps0 = 30. in
  let eta0 = 45. and alloc = 15. in
  let p =
    { Single_level.te;
      speedup = Speedup.linear ~kappa;
      level = Level.v ~restart:(Overhead.constant eta0) (Overhead.constant eps0);
      alloc;
      mu = Scale_fn.linear ~slope:b () }
  in
  let x_closed = Single_level.optimal_x_closed_form ~te ~kappa ~b ~eps0 in
  let n_closed = Single_level.optimal_n_closed_form ~te ~kappa ~b ~eta0 ~alloc in
  let s = Single_level.optimize ~n_max:(2. *. n_closed) p in
  check_rel ~tol:1e-3 "x agrees" x_closed s.Single_level.x;
  check_rel ~tol:1e-3 "n agrees" n_closed s.Single_level.n

let test_single_level_stationarity () =
  let p = fig3_params ~linear_cost:false in
  let s = Single_level.optimize p in
  check_close ~tol:1e-4 "dE/dx = 0 at optimum" 0.
    (Single_level.d_dx p ~x:s.Single_level.x ~n:s.Single_level.n);
  Alcotest.(check bool) "dE/dN ~ 0 at optimum (integer bisection)" true
    (Float.abs (Single_level.d_dn p ~x:s.Single_level.x ~n:s.Single_level.n) < 1e-4)

let test_single_level_derivatives_numeric () =
  let p = fig3_params ~linear_cost:true in
  List.iter
    (fun (x, n) ->
      let num_dx = Derivative.central ~f:(fun x -> Single_level.expected_wall_clock p ~x ~n) x in
      let num_dn = Derivative.central ~f:(fun n -> Single_level.expected_wall_clock p ~x ~n) n in
      check_rel ~tol:1e-3 "d/dx analytic vs numeric" num_dx (Single_level.d_dx p ~x ~n);
      check_rel ~tol:1e-3 "d/dN analytic vs numeric" num_dn (Single_level.d_dn p ~x ~n))
    [ (100., 10_000.); (500., 50_000.); (1_000., 90_000.) ]

let test_single_level_convexity_at_interior () =
  let p = fig3_params ~linear_cost:false in
  let s = Single_level.optimize p in
  let exx =
    Derivative.second ~f:(fun x -> Single_level.expected_wall_clock p ~x ~n:s.Single_level.n)
      s.Single_level.x
  in
  let enn =
    Derivative.second ~f:(fun n -> Single_level.expected_wall_clock p ~x:s.Single_level.x ~n)
      s.Single_level.n
  in
  Alcotest.(check bool) "convex in x at optimum" true (exx > 0.);
  Alcotest.(check bool) "convex in N at optimum" true (enn > 0.)

let test_single_level_no_failures_boundary () =
  (* With (almost) no failures the optimal scale is the ideal scale and
     checkpointing is pointless (x -> 1). *)
  let p = { (fig3_params ~linear_cost:false) with Single_level.mu = Scale_fn.const 1e-12 } in
  let s = Single_level.optimize p in
  check_close ~tol:1. "scale sticks to n_star" 1e5 s.Single_level.n;
  check_close ~tol:1e-3 "x clamps to 1" 1. s.Single_level.x

(* ---------------- Multilevel ---------------- *)

let eval_problem ?(case = "16-12-8-4") ?(te_core_days = 3e6) () =
  { Optimizer.te = te_core_days *. 86400.;
    speedup = Speedup.quadratic ~kappa:0.46 ~n_star:1e6;
    levels = Level.fti_fusion;
    alloc = 60.;
    spec = Failure_spec.of_string ~baseline_scale:1e6 case }

let ml_params ?(estimate = 40. *. 86400.) () =
  let p = eval_problem () in
  { Multilevel.te = p.Optimizer.te;
    speedup = p.Optimizer.speedup;
    levels = p.Optimizer.levels;
    alloc = p.Optimizer.alloc;
    mus =
      Array.init 4 (fun i ->
          Scale_fn.linear
            ~slope:(Failure_spec.rate_per_second' p.Optimizer.spec ~level:(i + 1) *. estimate)
            ()) }

let test_multilevel_breakdown_sums () =
  let p = ml_params () in
  let xs = [| 1000.; 500.; 200.; 50. |] and n = 5e5 in
  let b = Multilevel.breakdown p ~xs ~n in
  let total =
    b.Multilevel.productive +. b.Multilevel.checkpoint +. b.Multilevel.restart
    +. b.Multilevel.allocation +. b.Multilevel.rollback
  in
  check_rel ~tol:1e-9 "portions sum to E(Tw)" (Multilevel.expected_wall_clock p ~xs ~n) total

let test_multilevel_rollback_includes_lower_levels () =
  let p = ml_params () in
  let xs = [| 1000.; 500.; 200.; 50. |] and n = 5e5 in
  (* Eq. 18: a level-4 rollback re-pays level 1-3 checkpoints, so it must
     exceed the bare half-interval loss. *)
  let g = Speedup.eval p.Multilevel.speedup n in
  let bare = p.Multilevel.te /. g /. (2. *. xs.(3)) in
  Alcotest.(check bool) "rollback exceeds half interval" true
    (Multilevel.expected_rollback p ~xs ~n ~level:4 > bare)

let test_multilevel_d_dx_numeric () =
  let p = ml_params () in
  let xs = [| 2000.; 800.; 300.; 60. |] and n = 4e5 in
  for level = 1 to 4 do
    let f x =
      let xs' = Array.copy xs in
      xs'.(level - 1) <- x;
      Multilevel.expected_wall_clock p ~xs:xs' ~n
    in
    let numeric = Derivative.central ~f xs.(level - 1) in
    check_rel ~tol:1e-3
      (Printf.sprintf "d/dx%d analytic vs numeric" level)
      numeric
      (Multilevel.d_dx p ~xs ~n ~level)
  done

let test_multilevel_d_dn_numeric () =
  let p = ml_params () in
  let xs = [| 2000.; 800.; 300.; 60. |] in
  List.iter
    (fun n ->
      let numeric =
        Derivative.central ~f:(fun n -> Multilevel.expected_wall_clock p ~xs ~n) n
      in
      check_rel ~tol:1e-3 "d/dN analytic vs numeric" numeric (Multilevel.d_dn p ~xs ~n))
    [ 1e5; 4e5; 8e5 ]

let test_multilevel_x_update_solves_foc () =
  let p = ml_params () in
  let xs = [| 2000.; 800.; 300.; 60. |] and n = 4e5 in
  for level = 1 to 4 do
    let x' = Multilevel.x_update p ~xs ~n ~level in
    let xs' = Array.copy xs in
    xs'.(level - 1) <- x';
    check_close ~tol:1e-6
      (Printf.sprintf "Eq.23 holds after update of level %d" level)
      0.
      (Multilevel.d_dx p ~xs:xs' ~n ~level)
  done

let test_multilevel_optimize_stationary () =
  let p = ml_params () in
  let s = Multilevel.optimize_reference p in
  Alcotest.(check bool) "converged" true s.Multilevel.converged;
  for level = 1 to 4 do
    Alcotest.(check bool)
      (Printf.sprintf "dE/dx%d ~ 0" level)
      true
      (Float.abs (Multilevel.d_dx p ~xs:s.Multilevel.xs ~n:s.Multilevel.n ~level) < 1e-2)
  done;
  (* Interval counts decrease with level (cheap levels checkpoint more). *)
  for level = 1 to 3 do
    Alcotest.(check bool) "monotone interval counts" true
      (s.Multilevel.xs.(level - 1) >= s.Multilevel.xs.(level))
  done

let test_multilevel_fixed_n () =
  let p = ml_params () in
  let s = Multilevel.optimize_reference ~fixed_n:1e6 p in
  check_close ~tol:1e-9 "scale pinned" 1e6 s.Multilevel.n

let test_multilevel_single_level_degenerate () =
  (* With one level, the multilevel objective (Eq. 21) equals the
     single-level one (Eq. 13) plus the half-checkpoint term mu C / 2 that
     Eq. 18 includes and Eq. 13 drops; the optima are close but not
     identical. *)
  let sl = fig3_params ~linear_cost:false in
  let p =
    { Multilevel.te = sl.Single_level.te;
      speedup = sl.Single_level.speedup;
      levels = [| sl.Single_level.level |];
      alloc = sl.Single_level.alloc;
      mus = [| sl.Single_level.mu |] }
  in
  List.iter
    (fun (x, n) ->
      let offset =
        sl.Single_level.mu.Scale_fn.f n
        *. Overhead.cost sl.Single_level.level.Level.ckpt n /. 2.
      in
      check_rel ~tol:1e-9 "Eq.21 = Eq.13 + mu C / 2"
        (Single_level.expected_wall_clock sl ~x ~n +. offset)
        (Multilevel.expected_wall_clock p ~xs:[| x |] ~n))
    [ (100., 2e4); (797., 81_746.); (2_000., 9e4) ];
  let m = Multilevel.optimize_reference p in
  let s = Single_level.optimize sl in
  check_rel ~tol:0.05 "x close" s.Single_level.x m.Multilevel.xs.(0);
  check_rel ~tol:0.05 "n close" s.Single_level.n m.Multilevel.n

let test_multilevel_young_init () =
  let p = ml_params () in
  let xs = Multilevel.young_init p ~n:1e6 in
  Alcotest.(check int) "one per level" 4 (Array.length xs);
  Array.iter (fun x -> Alcotest.(check bool) "at least 1" true (x >= 1.)) xs

let test_multilevel_check_params () =
  let p = ml_params () in
  Alcotest.(check bool) "size mismatch rejected" true
    (try
       Multilevel.check_params { p with Multilevel.mus = [| Scale_fn.const 1. |] };
       false
     with Invalid_argument _ -> true)

(* ---------------- Optimizer (Algorithm 1) ---------------- *)

let test_optimizer_converges () =
  let plan = Optimizer.ml_opt_scale (eval_problem ()) in
  Alcotest.(check bool) "converged" true plan.Optimizer.converged;
  Alcotest.(check bool) "outer iterations sane" true
    (plan.Optimizer.outer_iterations > 1 && plan.Optimizer.outer_iterations < 100)

let test_optimizer_beats_baselines () =
  let problem = eval_problem () in
  let ml_opt = Optimizer.ml_opt_scale problem in
  let ml_ori = Optimizer.ml_ori_scale problem in
  let sl_opt = Optimizer.sl_opt_scale problem in
  let sl_ori = Optimizer.sl_ori_scale problem in
  Alcotest.(check bool) "beats ML(ori)" true
    (ml_opt.Optimizer.wall_clock <= ml_ori.Optimizer.wall_clock +. 1e-6);
  Alcotest.(check bool) "beats SL(opt)" true
    (ml_opt.Optimizer.wall_clock <= sl_opt.Optimizer.wall_clock +. 1e-6);
  Alcotest.(check bool) "beats SL(ori)" true
    (ml_opt.Optimizer.wall_clock <= sl_ori.Optimizer.wall_clock +. 1e-6)

let test_optimizer_scale_shrinks_with_failures () =
  let high = Optimizer.ml_opt_scale (eval_problem ~case:"16-12-8-4" ()) in
  let low = Optimizer.ml_opt_scale (eval_problem ~case:"4-2-1-0.5" ()) in
  Alcotest.(check bool) "higher rates -> smaller scale" true
    (high.Optimizer.n < low.Optimizer.n);
  Alcotest.(check bool) "both below the ideal scale" true
    (high.Optimizer.n < 1e6 && low.Optimizer.n < 1e6)

let test_optimizer_plan_consistency () =
  let plan = Optimizer.ml_opt_scale (eval_problem ()) in
  let b = plan.Optimizer.breakdown in
  let total =
    b.Multilevel.productive +. b.Multilevel.checkpoint +. b.Multilevel.restart
    +. b.Multilevel.allocation +. b.Multilevel.rollback
  in
  check_rel ~tol:1e-6 "breakdown sums to wall clock" plan.Optimizer.wall_clock total;
  check_rel ~tol:1e-9 "efficiency definition"
    (plan.Optimizer.wall_clock *. plan.Optimizer.n)
    ((eval_problem ()).Optimizer.te /. plan.Optimizer.efficiency)

let test_optimizer_mus_self_consistent () =
  let problem = eval_problem () in
  let plan = Optimizer.ml_opt_scale ~delta:1e-9 problem in
  Array.iteri
    (fun i mu ->
      let lambda =
        Failure_spec.rate_per_second problem.Optimizer.spec ~level:(i + 1)
          ~scale:plan.Optimizer.n
      in
      check_rel ~tol:1e-4
        (Printf.sprintf "mu_%d = lambda_%d * E(Tw)" (i + 1) (i + 1))
        (lambda *. plan.Optimizer.wall_clock)
        mu)
    plan.Optimizer.mus

let test_optimizer_single_level_collapse () =
  let problem = eval_problem () in
  let sl = Optimizer.single_level_problem problem in
  Alcotest.(check int) "one level" 1 (Array.length sl.Optimizer.levels);
  check_close "aggregated rate" 40. sl.Optimizer.spec.Failure_spec.rates_per_day.(0)

let test_optimizer_check_problem () =
  let problem = eval_problem () in
  Alcotest.(check bool) "mismatched spec rejected" true
    (try
       Optimizer.check_problem
         { problem with Optimizer.spec = Failure_spec.of_string "1-2" };
       false
     with Invalid_argument _ -> true)

(* Satellite: check_problem must reject NaN/infinity in every numeric
   field — a poisoned problem must never reach the fixed-point loop. *)
let test_check_problem_rejects_non_finite () =
  let problem = eval_problem () in
  (* Constructors and check_problem share the validation duty, so the
     thunk covers both: either may raise, neither may let the value
     through. *)
  let rejected name mk =
    Alcotest.(check bool) (name ^ " rejected") true
      (try
         Optimizer.check_problem (mk ());
         false
       with Invalid_argument _ -> true)
  in
  List.iter
    (fun bad ->
      rejected "te" (fun () -> { problem with Optimizer.te = bad });
      rejected "alloc" (fun () -> { problem with Optimizer.alloc = bad });
      rejected "rates" (fun () ->
          { problem with
            Optimizer.spec =
              Failure_spec.v ~baseline_scale:1e6 [| bad; 12.; 8.; 4. |] });
      rejected "ckpt eps" (fun () ->
          { problem with
            Optimizer.levels =
              Array.mapi
                (fun i l -> if i = 0 then Level.v (Overhead.constant bad) else l)
                problem.Optimizer.levels }))
    [ Float.nan; Float.infinity; Float.neg_infinity ];
  rejected "negative te" (fun () -> { problem with Optimizer.te = -1. });
  rejected "zero te" (fun () -> { problem with Optimizer.te = 0. });
  rejected "negative alloc" (fun () -> { problem with Optimizer.alloc = -1. });
  (* A healthy problem still passes. *)
  Optimizer.check_problem problem

let test_solve_outcome_classification () =
  let problem = eval_problem () in
  (match Optimizer.solve_outcome problem with
  | Optimizer.Converged plan ->
      Alcotest.(check bool) "converged plan equals solve" true
        (plan = Optimizer.solve problem)
  | _ -> Alcotest.fail "healthy problem must converge");
  match Optimizer.solve_outcome ~max_outer:1 problem with
  | Optimizer.Diverged plan ->
      Alcotest.(check bool) "plan_of_outcome recovers the plan" true
        (Optimizer.plan_of_outcome (Optimizer.Diverged plan) == plan)
  | Optimizer.Converged _ -> Alcotest.fail "one outer iteration cannot converge here"
  | Optimizer.Non_finite _ -> Alcotest.fail "finite problem classified non-finite"

let test_optimizer_sl_ori_is_young () =
  let problem = eval_problem () in
  let plan = Optimizer.sl_ori_scale problem in
  check_close ~tol:1e-9 "uses all cores" 1e6 plan.Optimizer.n;
  (* The PFS interval count must equal Young's formula with the
     productive-time failure count. *)
  let sl = Optimizer.single_level_problem problem in
  let productive = Speedup.productive_time sl.Optimizer.speedup ~te:sl.Optimizer.te ~n:1e6 in
  let failures = Failure_spec.rate_per_second sl.Optimizer.spec ~level:1 ~scale:1e6 *. productive in
  let c = Overhead.cost sl.Optimizer.levels.(0).Level.ckpt 1e6 in
  check_rel ~tol:1e-9 "young count"
    (Young.interval_count ~productive ~ckpt_cost:c ~failures)
    plan.Optimizer.xs.(0)

(* ---------------- Grid sweeps as batches (warm starts) ---------------- *)

let check_plan_matches msg (cold : Optimizer.plan) (warm : Optimizer.plan) =
  check_rel ~tol:1e-6 (msg ^ ": wall clock") cold.Optimizer.wall_clock
    warm.Optimizer.wall_clock;
  Alcotest.(check bool)
    (msg ^ ": scale") true
    (Float.abs (cold.Optimizer.n -. warm.Optimizer.n) <= 1.);
  Array.iteri
    (fun i x ->
      check_rel ~tol:1e-4
        (Printf.sprintf "%s: x_%d" msg (i + 1))
        x warm.Optimizer.xs.(i))
    cold.Optimizer.xs

(* A grid sweep of one problem is one [solve_batch]: its scales as
   [fixed_n] rows, its te or alloc values as variants sharing the
   problem's level array, so each row warm-starts from its converged
   neighbour.  Each row must match the point solved alone and cold, and
   the batch must spend fewer inner iterations than the cold solves. *)
let sweep_jobs problem axis values =
  Array.map
    (fun v ->
      match axis with
      | `Scale -> Optimizer.batch_job ~fixed_n:v problem
      | `Te -> Optimizer.batch_job { problem with Optimizer.te = v }
      | `Alloc -> Optimizer.batch_job { problem with Optimizer.alloc = v })
    values

let test_sweep_warm_matches_cold () =
  let problem = eval_problem () in
  (* Scale points stay at or below the speedup peak (n_star = 1e6). *)
  let scale_values = [| 2e5; 4e5; 6e5; 8e5; 1e6; 5e5; 3e5 |] in
  let te_values = Array.map (fun d -> d *. 86400.) [| 1e6; 2e6; 3e6; 4e6; 2.5e6 |] in
  let inner plans =
    Array.fold_left (fun acc p -> acc + p.Optimizer.inner_iterations) 0 plans
  in
  List.iter
    (fun (axis, values, label) ->
      let jobs = sweep_jobs problem axis values in
      let warm_plans = Optimizer.solve_batch jobs in
      let cold_plans =
        Array.map
          (fun (j : Optimizer.batch_job) ->
            Optimizer.solve ?fixed_n:j.Optimizer.fixed_n j.Optimizer.problem)
          jobs
      in
      Alcotest.(check int) (label ^ ": plan count") (Array.length values)
        (Array.length warm_plans);
      Array.iteri
        (fun i cold ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: point %d converged" label i)
            true warm_plans.(i).Optimizer.converged;
          check_plan_matches (Printf.sprintf "%s: point %d" label i) cold
            warm_plans.(i))
        cold_plans;
      Alcotest.(check bool)
        (label ^ ": warm spends fewer inner iterations")
        true
        (inner warm_plans < inner cold_plans))
    [ (`Scale, scale_values, "scale");
      (`Te, te_values, "te");
      (`Alloc, [| 30.; 60.; 90.; 120.; 45. |], "alloc") ]

let test_sweep_preserves_input_order () =
  let problem = eval_problem () in
  let values = [| 8e5; 2e5; 5e5 |] in
  let plans = Optimizer.solve_batch (sweep_jobs problem `Scale values) in
  Array.iteri
    (fun i v ->
      check_close ~tol:1e-9
        (Printf.sprintf "plan %d pinned at its own scale" i)
        v plans.(i).Optimizer.n)
    values

let test_warm_solve_matches_cold () =
  let problem = eval_problem () in
  let cold = Optimizer.ml_opt_scale problem in
  (* Warm-start the same problem from its own solution: the answer must
     not move, and the solve should spend strictly fewer iterations. *)
  let warm = Optimizer.solve ~warm:cold problem in
  check_plan_matches "self warm start" cold warm;
  Alcotest.(check bool) "fewer inner iterations" true
    (warm.Optimizer.inner_iterations < cold.Optimizer.inner_iterations);
  (* A warm plan with the wrong arity is ignored, not an error. *)
  let sl = Optimizer.single_level_problem problem in
  let warm_bad = Optimizer.solve ~warm:cold sl in
  let cold_sl = Optimizer.solve sl in
  check_close ~tol:0. "mismatched warm plan ignored" cold_sl.Optimizer.wall_clock
    warm_bad.Optimizer.wall_clock

(* ---------------- Level_selection ---------------- *)

let test_selection_subsets () =
  let subsets = Level_selection.subsets_containing_last ~levels:4 in
  Alcotest.(check int) "2^3 subsets" 8 (List.length subsets);
  List.iter
    (fun s ->
      Alcotest.(check bool) "contains level 4" true (List.mem 4 s);
      Alcotest.(check bool) "sorted" true (List.sort compare s = s))
    subsets

let test_selection_regroup () =
  let full = Failure_spec.of_string ~baseline_scale:1e6 "16-12-8-4" in
  let sub = Level_selection.regroup_rates ~full ~subset:[ 1; 4 ] in
  Alcotest.(check int) "two levels" 2 (Failure_spec.levels sub);
  check_close "level 1 keeps its rate" 16. sub.Failure_spec.rates_per_day.(0);
  check_close "levels 2-4 escalate to 4" 24. sub.Failure_spec.rates_per_day.(1);
  let all = Level_selection.regroup_rates ~full ~subset:[ 1; 2; 3; 4 ] in
  check_close "identity regroup" 12. all.Failure_spec.rates_per_day.(1)

let test_selection_regroup_validation () =
  let full = Failure_spec.of_string ~baseline_scale:1e6 "16-12-8-4" in
  let expect_invalid subset =
    Alcotest.(check bool) "rejected" true
      (try
         ignore (Level_selection.regroup_rates ~full ~subset);
         false
       with Invalid_argument _ -> true)
  in
  expect_invalid [];
  expect_invalid [ 1; 2 ];
  (* missing mandatory last level *)
  expect_invalid [ 4; 1 ];
  (* unsorted *)
  expect_invalid [ 1; 5 ]

let test_selection_orders_candidates () =
  (* Candidates come back sorted; multilevel choices beat the PFS-only
     plan; the full hierarchy is at worst a few percent off the winner.
     (With the Fusion costs the model actually prefers consolidating the
     three cheap levels onto level 3 - their write costs are within a few
     seconds of each other.) *)
  let problem = eval_problem () in
  let candidates = Level_selection.evaluate problem in
  Alcotest.(check int) "8 candidates" 8 (List.length candidates);
  let sorted = ref true in
  let rec scan = function
    | a :: (b :: _ as rest) ->
        if a.Level_selection.plan.Optimizer.wall_clock
           > b.Level_selection.plan.Optimizer.wall_clock +. 1e-9
        then sorted := false;
        scan rest
    | _ -> ()
  in
  scan candidates;
  Alcotest.(check bool) "sorted best-first" true !sorted;
  let best = Level_selection.best problem in
  let wall_of subset =
    (List.find (fun c -> c.Level_selection.levels_used = subset) candidates)
      .Level_selection.plan.Optimizer.wall_clock
  in
  Alcotest.(check bool) "beats PFS-only" true
    (best.Level_selection.plan.Optimizer.wall_clock < wall_of [ 4 ]);
  Alcotest.(check bool) "full hierarchy within 10% of the winner" true
    (wall_of [ 1; 2; 3; 4 ]
     <= 1.1 *. best.Level_selection.plan.Optimizer.wall_clock)

let test_selection_drops_useless_level () =
  (* A ruinously expensive level 3 with zero failures of its own should be
     dropped by the selection. *)
  let levels =
    [| Level.v ~name:"l1" (Overhead.constant 1.);
       Level.v ~name:"l2" (Overhead.constant 3.);
       Level.v ~name:"l3-overpriced" (Overhead.constant 5_000.);
       Level.v ~name:"pfs" (Overhead.constant 30.) |]
  in
  let problem =
    { (eval_problem ()) with
      Optimizer.levels;
      spec = Failure_spec.of_string ~baseline_scale:1e6 "16-12-0-4" }
  in
  let best = Level_selection.best problem in
  Alcotest.(check bool) "level 3 dropped" true
    (not (List.mem 3 best.Level_selection.levels_used))

(* ---------------- Young / Daly / Jin ---------------- *)

let test_young_interval () =
  check_close "sqrt(2 c M)" (sqrt (2. *. 10. *. 3600.))
    (Young.interval ~ckpt_cost:10. ~mtbf:3600.);
  (* Count and interval forms agree. *)
  let productive = 86_400. and ckpt_cost = 20. and failures = 12. in
  let count = Young.interval_count ~productive ~ckpt_cost ~failures in
  let interval = Young.interval ~ckpt_cost ~mtbf:(productive /. failures) in
  check_rel ~tol:1e-9 "forms agree" (productive /. interval) count

let test_daly_refines_young () =
  (* For small c/M Daly ~ Young; for large c it caps the interval at M. *)
  let young = Young.interval ~ckpt_cost:1. ~mtbf:36_000. in
  let daly = Daly.interval ~ckpt_cost:1. ~mtbf:36_000. in
  Alcotest.(check bool) "close when c << M" true (Float.abs (daly -. young) /. young < 0.01);
  check_close "caps at mtbf" 100. (Daly.interval ~ckpt_cost:300. ~mtbf:100.)

let test_daly_count_zero_failures () =
  check_close "no failures -> 1 interval" 1.
    (Daly.interval_count ~productive:1000. ~ckpt_cost:5. ~failures:0.)

let test_jin_agrees_from_good_start () =
  let p = fig3_params ~linear_cost:false in
  let reference = Single_level.optimize p in
  let jin = Jin.optimize ~x0:800. ~n0:80_000. p in
  Alcotest.(check bool) "converged" true jin.Jin.converged;
  check_rel ~tol:0.01 "x agrees" reference.Single_level.x jin.Jin.x;
  check_rel ~tol:0.01 "n agrees" reference.Single_level.n jin.Jin.n

let test_jin_can_fail_from_bad_start () =
  let p = fig3_params ~linear_cost:false in
  (* The paper's critique: Newton without convexity analysis may not
     converge from poor initial values. *)
  let attempts =
    [ Jin.optimize ~x0:1.0001 ~n0:2. p;
      Jin.optimize ~x0:1e9 ~n0:99_999.99 p;
      Jin.optimize ~x0:2. ~n0:99_999.5 p ]
  in
  Alcotest.(check bool) "at least one bad start misbehaves" true
    (List.exists
       (fun (o : Jin.outcome) ->
         (not o.Jin.converged)
         || Float.abs (o.Jin.x -. 797.) > 10.
         || Float.abs (o.Jin.n -. 81_746.) > 1_000.)
       attempts)

(* ---------------- Markov (SCR-style baseline) ---------------- *)

let markov_params () =
  let p = eval_problem () in
  { Markov.te = p.Optimizer.te; speedup = p.Optimizer.speedup;
    levels = p.Optimizer.levels; alloc = p.Optimizer.alloc; spec = p.Optimizer.spec }

let test_markov_cadence () =
  let c = Markov.cadence [| 2; 4; 8 |] in
  Alcotest.(check int) "segment 1 -> level 1" 1 (Markov.level_of_segment c 1);
  Alcotest.(check int) "segment 2 -> level 2" 2 (Markov.level_of_segment c 2);
  Alcotest.(check int) "segment 4 -> level 3" 3 (Markov.level_of_segment c 4);
  Alcotest.(check int) "segment 8 -> level 4" 4 (Markov.level_of_segment c 8);
  Alcotest.(check int) "segment 6 -> level 2" 2 (Markov.level_of_segment c 6);
  Alcotest.(check bool) "decreasing rejected" true
    (try
       ignore (Markov.cadence [| 4; 2; 8 |]);
       false
     with Invalid_argument _ -> true)

let test_markov_no_failures () =
  (* Without failures the chain reduces exactly to
     segments x (tau + mean checkpoint cost over the cadence cycle). *)
  let p = { (markov_params ()) with
            Markov.spec = Failure_spec.v ~baseline_scale:1e6 [| 0.; 0.; 0.; 0. |] } in
  let c = Markov.cadence [| 2; 4; 8 |] in
  let tau = 1000. and n = 5e5 in
  let productive = Speedup.productive_time p.Markov.speedup ~te:p.Markov.te ~n in
  let mean_ckpt =
    let total = ref 0. in
    for k = 1 to 8 do
      let lvl = Markov.level_of_segment c k in
      total := !total +. Overhead.cost p.Markov.levels.(lvl - 1).Level.ckpt n
    done;
    !total /. 8.
  in
  let expected = productive /. tau *. (tau +. mean_ckpt) in
  check_rel ~tol:1e-9 "exact failure-free form" expected
    (Markov.expected_wall_clock p ~n ~segment_length:tau c)

let test_markov_diverges_when_overloaded () =
  let p = markov_params () in
  (* Huge segments at full machine: the renewal bound must break. *)
  let c = Markov.cadence [| 1; 1; 1 |] in
  let e = Markov.expected_wall_clock p ~n:1e6 ~segment_length:5e5 c in
  Alcotest.(check bool) "divergence reported as infinity" true (Float.is_integer e = false && e = infinity || e = infinity)

let test_markov_optimize_beats_naive () =
  let p = markov_params () in
  let plan = Markov.optimize p ~n:376_179. in
  Alcotest.(check bool) "finite" true (Float.is_finite plan.Markov.wall_clock);
  (* A deliberately bad cadence (PFS every segment) must be worse. *)
  let bad = Markov.expected_wall_clock p ~n:376_179. ~segment_length:plan.Markov.segment_length
              (Markov.cadence [| 1; 1; 1 |]) in
  Alcotest.(check bool) "optimized beats PFS-every-segment" true
    (plan.Markov.wall_clock < bad);
  (* xs are consistent with the cadence. *)
  let xs = Markov.to_simulator_xs p ~n:376_179. plan in
  Alcotest.(check int) "four counts" 4 (Array.length xs);
  Alcotest.(check bool) "monotone non-increasing" true
    (xs.(0) >= xs.(1) && xs.(1) >= xs.(2) && xs.(2) >= xs.(3))

let test_markov_near_algorithm1_at_fixed_scale () =
  (* At a fixed, sane scale the two models should agree within tens of
     percent (they model the same physics). *)
  let problem = eval_problem () in
  let alg1 = Optimizer.ml_opt_scale problem in
  let scr = Markov.optimize (markov_params ()) ~n:alg1.Optimizer.n in
  let ratio = scr.Markov.wall_clock /. alg1.Optimizer.wall_clock in
  Alcotest.(check bool)
    (Printf.sprintf "within 30%% (ratio %.2f)" ratio)
    true (ratio > 0.8 && ratio < 1.3)

(* ---------------- Sensitivity ---------------- *)

let test_sensitivity_kappa_elasticity () =
  (* Speedup enters E(Tw) almost purely as 1/kappa, so its wall-clock
     elasticity is ~ -1 and the optimal scale barely moves. *)
  let problem = eval_problem () in
  let knobs = Sensitivity.quadratic_knobs ~kappa:0.46 ~n_star:1e6 problem in
  let rows = Sensitivity.elasticities knobs in
  let find name = List.find (fun r -> String.equal r.Sensitivity.name name) rows in
  let kappa = find "kappa" in
  Alcotest.(check bool) "kappa elasticity ~ -1" true
    (Float.abs (kappa.Sensitivity.wall_clock_elasticity +. 1.) < 0.05);
  Alcotest.(check bool) "kappa barely moves N*" true
    (Float.abs kappa.Sensitivity.scale_elasticity < 0.05);
  (* The expensive level dominates the scale decision over the cheap ones. *)
  let l4 = find "ckpt_cost_L4" and l1 = find "ckpt_cost_L1" in
  Alcotest.(check bool) "PFS cost matters more than L1 cost" true
    (Float.abs l4.Sensitivity.scale_elasticity
     > 10. *. Float.abs l1.Sensitivity.scale_elasticity);
  (* Raising any failure rate cannot shorten the run. *)
  List.iter
    (fun lvl ->
      let r = find (Printf.sprintf "rate_L%d" lvl) in
      Alcotest.(check bool) "rates hurt" true (r.Sensitivity.wall_clock_elasticity >= -1e-6))
    [ 1; 2; 3; 4 ]

let test_sensitivity_knob_identity () =
  let problem = eval_problem () in
  let knobs = Sensitivity.quadratic_knobs ~kappa:0.46 ~n_star:1e6 problem in
  List.iter
    (fun k ->
      let p = k.Sensitivity.apply 1. in
      Optimizer.check_problem p)
    knobs;
  Alcotest.(check int) "3 + 2 x levels knobs" 11 (List.length knobs)

(* ---------------- Self_consistent (Eq. 6) ---------------- *)

let sc_params =
  { Self_consistent.te = 100. *. 86400.;
    kappa = 1.;
    eps0 = 10.;
    alpha0 = 0.01;
    eta0 = 60.;
    beta0 = 1e-3;
    alloc = 60.;
    lambda = 2e-4 }

let test_self_consistent_guard () =
  Alcotest.(check bool) "too-high rate rejected" true
    (try
       ignore
         (Self_consistent.wall_clock { sc_params with Self_consistent.lambda = 1. } ~x:2.
            ~n:100.);
       false
     with Invalid_argument _ -> true)

let test_self_consistent_nonconvex_exists () =
  let xs = List.init 20 (fun i -> 1.5 +. (float_of_int i *. 4.)) in
  let ns = List.init 30 (fun i -> 100. *. (1.3 ** float_of_int i)) in
  Alcotest.(check bool) "non-convex points found" true
    (Self_consistent.find_nonconvex_region sc_params ~xs ~ns <> [])

let test_self_consistent_matches_fixed_mu () =
  (* With the failure count fixed at lambda * E, Eq. (5) and Eq. (6) agree:
     E = P + C(x-1) + lambda E (rollback + R + A). *)
  let x = 50. and n = 1_000. in
  let e = Self_consistent.wall_clock sc_params ~x ~n in
  let p = sc_params in
  let rhs =
    (p.Self_consistent.te /. (p.Self_consistent.kappa *. n))
    +. ((p.Self_consistent.eps0 +. (p.Self_consistent.alpha0 *. n)) *. (x -. 1.))
    +. (p.Self_consistent.lambda *. e
        *. ((p.Self_consistent.te /. (2. *. x *. p.Self_consistent.kappa *. n))
            +. p.Self_consistent.eta0 +. (p.Self_consistent.beta0 *. n)
            +. p.Self_consistent.alloc))
  in
  check_rel ~tol:1e-9 "self-consistency" e rhs

let test_optimizer_amdahl_end_to_end () =
  (* The optimizer is generic in the speedup law: an Amdahl curve with a
     supplied search bound works end to end. *)
  let problem =
    { (eval_problem ()) with
      Optimizer.speedup = Speedup.amdahl ~serial_fraction:1e-6 ~peak:1e6 }
  in
  let plan = Optimizer.ml_opt_scale problem in
  Alcotest.(check bool) "converged" true plan.Optimizer.converged;
  Alcotest.(check bool) "scale within bounds" true
    (plan.Optimizer.n >= 1. && plan.Optimizer.n <= 1e6);
  Alcotest.(check bool) "finite wall clock" true (Float.is_finite plan.Optimizer.wall_clock)

let test_young_init_matches_young_module () =
  (* Eq. 25 in Multilevel.young_init is the count form of Young.interval_count. *)
  let p = ml_params () in
  let n = 5e5 in
  let xs = Multilevel.young_init p ~n in
  let g = Speedup.eval p.Multilevel.speedup n in
  let productive = p.Multilevel.te /. g in
  Array.iteri
    (fun i x ->
      let c = Overhead.cost p.Multilevel.levels.(i).Level.ckpt n in
      let mu = p.Multilevel.mus.(i).Scale_fn.f n in
      check_rel ~tol:1e-9 "matches Young count"
        (Young.interval_count ~productive ~ckpt_cost:c ~failures:(mu *. productive /. productive))
        x |> ignore;
      (* equivalently: x = sqrt(mu * productive / (2C)) *)
      check_rel ~tol:1e-9 "closed form"
        (Float.max 1. (sqrt (mu *. productive /. (2. *. c))))
        x)
    xs

let test_pp_plan_renders () =
  let plan = Optimizer.ml_opt_scale (eval_problem ()) in
  let out = Format.asprintf "%a" Optimizer.pp_plan plan in
  Alcotest.(check bool) "mentions scale" true (String.length out > 100)

(* ---------------- Weak scaling ---------------- *)

let test_weak_scaling_series () =
  let spec = Failure_spec.of_string ~baseline_scale:1e6 "8-6-4-2" in
  let points =
    Weak_scaling.series ~per_core_work:86_400. ~speedup:(Speedup.quadratic ~kappa:0.46 ~n_star:1e6)
      ~levels:Level.fti_fusion ~alloc:60. ~spec ~scales:[ 1e4; 1e5; 5e5 ]
  in
  Alcotest.(check int) "three points" 3 (List.length points);
  List.iter
    (fun p ->
      Alcotest.(check bool) "efficiency in (0, 1]" true
        (p.Weak_scaling.efficiency > 0. && p.Weak_scaling.efficiency <= 1.);
      Alcotest.(check bool) "wall clock at least failure-free" true
        (p.Weak_scaling.wall_clock >= p.Weak_scaling.failure_free -. 1e-6))
    points;
  (* Efficiency declines with scale (rates grow with N). *)
  match points with
  | [ a; b; c ] ->
      Alcotest.(check bool) "monotone decline" true
        (a.Weak_scaling.efficiency > b.Weak_scaling.efficiency
         && b.Weak_scaling.efficiency > c.Weak_scaling.efficiency)
  | _ -> Alcotest.fail "expected three points"

let test_divergent_plan_reported () =
  (* A PFS-only weak-scaled run at 9e5 cores cannot outrun its failures:
     the optimizer must report divergence, not crash. *)
  let spec = Failure_spec.v ~baseline_scale:1e6 [| 20. |] in
  let problem =
    { Optimizer.te = 86_400. *. 9e5;
      speedup = Speedup.quadratic ~kappa:0.46 ~n_star:1e6;
      levels = [| Level.fti_fusion.(3) |];
      alloc = 60.;
      spec }
  in
  let plan = Optimizer.solve ~fixed_n:9e5 problem in
  Alcotest.(check bool) "not converged" false plan.Optimizer.converged;
  Alcotest.(check bool) "infinite wall clock" true (plan.Optimizer.wall_clock = infinity);
  check_close ~tol:1e-12 "zero efficiency" 0. plan.Optimizer.efficiency

(* ---------------- Codec (JSON round trips) ---------------- *)

let test_codec_problem_roundtrip () =
  let problem = eval_problem () in
  match Codec.problem_of_json (Codec.problem_to_json problem) with
  | Error e -> Alcotest.fail e
  | Ok p ->
      check_close ~tol:1e-9 "te" problem.Optimizer.te p.Optimizer.te;
      check_close ~tol:1e-9 "alloc" problem.Optimizer.alloc p.Optimizer.alloc;
      Alcotest.(check int) "levels" 4 (Array.length p.Optimizer.levels);
      check_close ~tol:1e-12 "rate"
        problem.Optimizer.spec.Failure_spec.rates_per_day.(1)
        p.Optimizer.spec.Failure_spec.rates_per_day.(1);
      (* The reconstructed problem optimizes to the same plan. *)
      let a = Optimizer.ml_opt_scale problem and b = Optimizer.ml_opt_scale p in
      check_rel ~tol:1e-9 "same optimum scale" a.Optimizer.n b.Optimizer.n;
      check_rel ~tol:1e-9 "same wall clock" a.Optimizer.wall_clock b.Optimizer.wall_clock

let test_codec_plan_roundtrip () =
  let plan = Optimizer.ml_opt_scale (eval_problem ()) in
  match Codec.plan_of_json (Codec.plan_to_json plan) with
  | Error e -> Alcotest.fail e
  | Ok p ->
      Alcotest.(check bool) "xs equal" true (p.Optimizer.xs = plan.Optimizer.xs);
      check_close ~tol:1e-9 "n" plan.Optimizer.n p.Optimizer.n;
      check_close ~tol:1e-6 "wall" plan.Optimizer.wall_clock p.Optimizer.wall_clock;
      Alcotest.(check bool) "converged flag" plan.Optimizer.converged p.Optimizer.converged;
      Alcotest.(check int) "outer iterations" plan.Optimizer.outer_iterations
        p.Optimizer.outer_iterations

let test_codec_bundle_and_errors () =
  let problem = eval_problem () in
  let plan = Optimizer.sl_ori_scale problem in
  let sl = Optimizer.single_level_problem problem in
  (match Codec.bundle_of_json (Codec.bundle_to_json ~problem:sl ~plan) with
   | Ok (p, pl) ->
       Alcotest.(check int) "single level round trips" 1 (Array.length p.Optimizer.levels);
       Alcotest.(check bool) "xs" true (pl.Optimizer.xs = plan.Optimizer.xs)
   | Error e -> Alcotest.fail e);
  (* Malformed inputs are rejected with messages, not exceptions. *)
  (match Codec.problem_of_json (Ckpt_json.Json.Obj [ ("te", Ckpt_json.Json.Number 1.) ]) with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "expected error");
  match Codec.speedup_of_json (Ckpt_json.Json.Obj [ ("kind", Ckpt_json.Json.String "warp") ]) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected error"

let test_codec_custom_rejected () =
  let custom =
    Speedup.custom ~name:"weird" ~law:(Scale_fn.linear ~slope:1. ()) ~n_ideal:None
  in
  Alcotest.(check bool) "custom speedup refuses to serialize" true
    (try
       ignore (Codec.speedup_to_json custom);
       false
     with Invalid_argument _ -> true)

(* ---------------- properties ---------------- *)

let qcheck_tests =
  let open QCheck in
  [ Test.make ~name:"single-level derivatives match finite differences" ~count:100
      (pair (float_range 2. 5_000.) (float_range 100. 90_000.))
      (fun (x, n) ->
        let p = fig3_params ~linear_cost:true in
        let num_dx =
          Derivative.central ~f:(fun x -> Single_level.expected_wall_clock p ~x ~n) x
        in
        let ana = Single_level.d_dx p ~x ~n in
        Float.abs (num_dx -. ana) <= 1e-3 *. (1. +. Float.abs ana));
    Test.make ~name:"multilevel breakdown always sums to E(Tw)" ~count:100
      (pair
         (quad (float_range 1. 1e4) (float_range 1. 5e3) (float_range 1. 1e3)
            (float_range 1. 200.))
         (float_range 1e3 9e5))
      (fun ((x1, x2, x3, x4), n) ->
        let p = ml_params () in
        let xs = [| x1; x2; x3; x4 |] in
        let b = Multilevel.breakdown p ~xs ~n in
        let total =
          b.Multilevel.productive +. b.Multilevel.checkpoint +. b.Multilevel.restart
          +. b.Multilevel.allocation +. b.Multilevel.rollback
        in
        let e = Multilevel.expected_wall_clock p ~xs ~n in
        Float.abs (total -. e) <= 1e-6 *. e);
    Test.make ~name:"plan is locally optimal under perturbations" ~count:25
      (pair (int_range 0 3) (float_range 0.7 1.4))
      (fun (level, factor) ->
        (* Scaling any single interval count away from the optimum - or
           moving the scale - cannot improve the fixed-mu objective. *)
        let problem = eval_problem () in
        let plan = Optimizer.ml_opt_scale problem in
        let mus =
          Array.init 4 (fun i ->
              Scale_fn.linear
                ~slope:
                  (Failure_spec.rate_per_second' problem.Optimizer.spec ~level:(i + 1)
                   *. plan.Optimizer.wall_clock)
                ())
        in
        let params =
          { Multilevel.te = problem.Optimizer.te;
            speedup = problem.Optimizer.speedup;
            levels = problem.Optimizer.levels;
            alloc = problem.Optimizer.alloc;
            mus }
        in
        let base = Multilevel.expected_wall_clock params ~xs:plan.Optimizer.xs ~n:plan.Optimizer.n in
        let xs' = Array.copy plan.Optimizer.xs in
        xs'.(level) <- Float.max 1. (xs'.(level) *. factor);
        let perturbed_x = Multilevel.expected_wall_clock params ~xs:xs' ~n:plan.Optimizer.n in
        let n' = Float.min 999_999. (Float.max 1. (plan.Optimizer.n *. factor)) in
        let perturbed_n = Multilevel.expected_wall_clock params ~xs:plan.Optimizer.xs ~n:n' in
        perturbed_x >= base -. (1e-6 *. base) && perturbed_n >= base -. (1e-6 *. base));
    Test.make ~name:"x_update always lands at a stationary point" ~count:100
      (pair (int_range 1 4) (float_range 1e4 9e5))
      (fun (level, n) ->
        let p = ml_params () in
        let xs = [| 2000.; 800.; 300.; 60. |] in
        let x' = Multilevel.x_update p ~xs ~n ~level in
        let xs' = Array.copy xs in
        xs'.(level - 1) <- x';
        x' = 1. || Float.abs (Multilevel.d_dx p ~xs:xs' ~n ~level) < 1e-4) ]

let () =
  Alcotest.run "ckpt_model"
    [ ( "scale-fn",
        [ Alcotest.test_case "combinators" `Quick test_scale_fn_combinators;
          Alcotest.test_case "of_fun" `Quick test_scale_fn_of_fun;
          Alcotest.test_case "check_derivative" `Quick test_scale_fn_check_derivative ] );
      ( "speedup",
        [ Alcotest.test_case "linear" `Quick test_speedup_linear;
          Alcotest.test_case "quadratic shape" `Quick test_speedup_quadratic_shape;
          Alcotest.test_case "paper example" `Quick test_speedup_quadratic_paper_example;
          Alcotest.test_case "amdahl" `Quick test_speedup_amdahl;
          Alcotest.test_case "gustafson" `Quick test_speedup_gustafson;
          Alcotest.test_case "of fit" `Quick test_speedup_of_fit;
          Alcotest.test_case "derivatives numeric" `Quick test_speedup_derivatives_numeric ] );
      ( "overhead",
        [ Alcotest.test_case "laws" `Quick test_overhead_laws;
          Alcotest.test_case "table II fit" `Quick test_overhead_fit_table2;
          Alcotest.test_case "exact line" `Quick test_overhead_fit_exact_line;
          Alcotest.test_case "fti fusion levels" `Quick test_fti_fusion_levels ] );
      ( "single-level",
        [ Alcotest.test_case "fig3 constant optimum" `Quick test_fig3_constant_cost_optimum;
          Alcotest.test_case "fig3 linear optimum" `Quick test_fig3_linear_cost_optimum;
          Alcotest.test_case "closed forms" `Quick test_closed_forms_match_optimizer;
          Alcotest.test_case "stationarity" `Quick test_single_level_stationarity;
          Alcotest.test_case "derivatives numeric" `Quick
            test_single_level_derivatives_numeric;
          Alcotest.test_case "convexity at optimum" `Quick
            test_single_level_convexity_at_interior;
          Alcotest.test_case "no failures boundary" `Quick
            test_single_level_no_failures_boundary ] );
      ( "multilevel",
        [ Alcotest.test_case "breakdown sums" `Quick test_multilevel_breakdown_sums;
          Alcotest.test_case "rollback includes lower levels" `Quick
            test_multilevel_rollback_includes_lower_levels;
          Alcotest.test_case "d/dx numeric" `Quick test_multilevel_d_dx_numeric;
          Alcotest.test_case "d/dN numeric" `Quick test_multilevel_d_dn_numeric;
          Alcotest.test_case "x_update solves FOC" `Quick test_multilevel_x_update_solves_foc;
          Alcotest.test_case "optimize stationary" `Quick test_multilevel_optimize_stationary;
          Alcotest.test_case "fixed N" `Quick test_multilevel_fixed_n;
          Alcotest.test_case "degenerates to single level" `Quick
            test_multilevel_single_level_degenerate;
          Alcotest.test_case "young init" `Quick test_multilevel_young_init;
          Alcotest.test_case "check params" `Quick test_multilevel_check_params ] );
      ( "optimizer",
        [ Alcotest.test_case "converges" `Quick test_optimizer_converges;
          Alcotest.test_case "beats baselines" `Quick test_optimizer_beats_baselines;
          Alcotest.test_case "scale shrinks with failures" `Quick
            test_optimizer_scale_shrinks_with_failures;
          Alcotest.test_case "plan consistency" `Quick test_optimizer_plan_consistency;
          Alcotest.test_case "mus self-consistent" `Quick test_optimizer_mus_self_consistent;
          Alcotest.test_case "single-level collapse" `Quick
            test_optimizer_single_level_collapse;
          Alcotest.test_case "check problem" `Quick test_optimizer_check_problem;
          Alcotest.test_case "check problem rejects non-finite" `Quick
            test_check_problem_rejects_non_finite;
          Alcotest.test_case "solve outcome classification" `Quick
            test_solve_outcome_classification;
          Alcotest.test_case "sl-ori is young" `Quick test_optimizer_sl_ori_is_young;
          Alcotest.test_case "amdahl end to end" `Quick test_optimizer_amdahl_end_to_end;
          Alcotest.test_case "young init form" `Quick test_young_init_matches_young_module;
          Alcotest.test_case "pp plan" `Quick test_pp_plan_renders ] );
      ( "sweep",
        [ Alcotest.test_case "warm matches cold" `Quick test_sweep_warm_matches_cold;
          Alcotest.test_case "input order" `Quick test_sweep_preserves_input_order;
          Alcotest.test_case "warm solve" `Quick test_warm_solve_matches_cold ] );
      ( "level-selection",
        [ Alcotest.test_case "subsets" `Quick test_selection_subsets;
          Alcotest.test_case "regroup" `Quick test_selection_regroup;
          Alcotest.test_case "regroup validation" `Quick test_selection_regroup_validation;
          Alcotest.test_case "orders candidates" `Quick test_selection_orders_candidates;
          Alcotest.test_case "drops useless level" `Quick test_selection_drops_useless_level ] );
      ( "baselines",
        [ Alcotest.test_case "young interval" `Quick test_young_interval;
          Alcotest.test_case "daly refines young" `Quick test_daly_refines_young;
          Alcotest.test_case "daly zero failures" `Quick test_daly_count_zero_failures;
          Alcotest.test_case "jin agrees" `Quick test_jin_agrees_from_good_start;
          Alcotest.test_case "jin bad start" `Quick test_jin_can_fail_from_bad_start ] );
      ( "weak-scaling",
        [ Alcotest.test_case "series" `Quick test_weak_scaling_series;
          Alcotest.test_case "divergence reported" `Quick test_divergent_plan_reported ] );
      ( "codec",
        [ Alcotest.test_case "problem roundtrip" `Quick test_codec_problem_roundtrip;
          Alcotest.test_case "plan roundtrip" `Quick test_codec_plan_roundtrip;
          Alcotest.test_case "bundle and errors" `Quick test_codec_bundle_and_errors;
          Alcotest.test_case "custom rejected" `Quick test_codec_custom_rejected ] );
      ( "markov",
        [ Alcotest.test_case "cadence" `Quick test_markov_cadence;
          Alcotest.test_case "no failures" `Quick test_markov_no_failures;
          Alcotest.test_case "divergence" `Quick test_markov_diverges_when_overloaded;
          Alcotest.test_case "optimize beats naive" `Quick test_markov_optimize_beats_naive;
          Alcotest.test_case "near algorithm 1" `Quick
            test_markov_near_algorithm1_at_fixed_scale ] );
      ( "sensitivity",
        [ Alcotest.test_case "kappa elasticity" `Quick test_sensitivity_kappa_elasticity;
          Alcotest.test_case "knob identity" `Quick test_sensitivity_knob_identity ] );
      ( "self-consistent",
        [ Alcotest.test_case "guard" `Quick test_self_consistent_guard;
          Alcotest.test_case "nonconvexity exists" `Quick test_self_consistent_nonconvex_exists;
          Alcotest.test_case "fixed-mu consistency" `Quick
            test_self_consistent_matches_fixed_mu ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_tests) ]
