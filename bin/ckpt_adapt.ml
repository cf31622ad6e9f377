(* Fit model parameters from an execution telemetry log and re-plan.

   Reads a JSON-lines telemetry log (the Ckpt_adaptive.Telemetry shape,
   as written by examples/adaptive_replay.ml --write or a resilience
   runtime), estimates per-level failure rates (with exact Poisson
   confidence intervals) and checkpoint/restart costs, and re-runs the
   paper's Algorithm 1 on the prior problem re-parameterized by the
   estimates.

   Example:
     ckpt_adapt --input session.jsonl --rates 4-3-2-1 --n-star 1e5 \
                --te-days 30000 --output replan.json *)

open Cmdliner
open Ckpt_model
module A = Ckpt_adaptive
module Spec = Ckpt_failures.Failure_spec

let build_levels costs pfs_alpha =
  match costs with
  | [] -> Level.fti_fusion
  | costs ->
      let n = List.length costs in
      Array.of_list
        (List.mapi
           (fun i c ->
             if i = n - 1 && pfs_alpha > 0. then
               Level.v ~name:"pfs" (Overhead.linear ~eps:c ~alpha:pfs_alpha)
             else Level.v ~name:(Printf.sprintf "level%d" (i + 1)) (Overhead.constant c))
           costs)

let read_lines path =
  let ic = open_in path in
  let rec go acc = match input_line ic with
    | line -> go (line :: acc)
    | exception End_of_file -> close_in ic; List.rev acc
  in
  go []

let fit ~prior_strength ~min_samples (problem : Optimizer.problem) events =
  let levels = Array.length problem.Optimizer.levels in
  let rates = A.Rate_estimator.observe_all (A.Rate_estimator.create ~levels ()) events in
  let costs = A.Cost_estimator.observe_all (A.Cost_estimator.create ~levels ()) events in
  let fitted =
    { problem with
      Optimizer.spec = A.Rate_estimator.to_spec ~prior_strength rates ~like:problem.Optimizer.spec;
      levels = A.Cost_estimator.calibrated_levels ~min_samples costs ~prior:problem.Optimizer.levels
    }
  in
  (rates, costs, fitted)

let report ~coverage rates costs (problem : Optimizer.problem) fitted =
  let nb = problem.Optimizer.spec.Spec.baseline_scale in
  Format.printf "telemetry: %d failures over %.3e core-seconds of exposure@."
    (A.Rate_estimator.total_count rates)
    (A.Rate_estimator.exposure rates);
  Format.printf "fitted rates per day at N_b = %.0f (prior %s):@." nb
    (Spec.to_string problem.Optimizer.spec);
  for level = 1 to A.Rate_estimator.levels rates do
    let r = A.Rate_estimator.rate_per_day rates ~level ~baseline_scale:nb in
    let lo, hi = A.Rate_estimator.confidence_per_day ~coverage rates ~level ~baseline_scale:nb in
    Format.printf "  level %d: %8.3f  [%.0f%% CI %8.3f .. %8.3f]  (%d failures)@." level r
      (100. *. coverage) lo hi
      (A.Rate_estimator.count rates ~level)
  done;
  Format.printf "observed costs (seconds):@.";
  for level = 1 to A.Cost_estimator.levels costs do
    let cn = A.Cost_estimator.ckpt_count costs ~level in
    let rn = A.Cost_estimator.restart_count costs ~level in
    Format.printf "  level %d: ckpt %d obs" level cn;
    if cn > 0 then Format.printf " mean %.3f" (A.Cost_estimator.ckpt_mean costs ~level);
    Format.printf "; restart %d obs" rn;
    if rn > 0 then Format.printf " mean %.3f" (A.Cost_estimator.restart_mean costs ~level);
    Format.printf "@."
  done;
  ignore fitted

let ( let* ) = Result.bind

let write_bundle path problem plan =
  let json = Codec.bundle_to_json ~problem ~plan in
  let oc = open_out path in
  output_string oc (Ckpt_json.Json.to_string ~pretty:true json);
  output_char oc '\n';
  close_out oc

let run_fit input te_days rates_s kappa n_star alloc costs pfs_alpha fixed_n delta coverage
    prior_strength min_samples output =
  let* spec =
    try Ok (Spec.of_string ~baseline_scale:n_star rates_s) with Invalid_argument m -> Error m
  in
  let levels = build_levels costs pfs_alpha in
  let* () =
    if Spec.levels spec = Array.length levels then Ok ()
    else
      Error
        (Printf.sprintf "%d failure rates for %d levels" (Spec.levels spec) (Array.length levels))
  in
  let problem =
    { Optimizer.te = te_days *. 86400.;
      speedup = Speedup.quadratic ~kappa ~n_star;
      levels; alloc; spec }
  in
  let* events =
    match A.Telemetry.read_lines (read_lines input) with
    | Ok events -> Ok events
    | Error m -> Error (Printf.sprintf "%s: %s" input m)
  in
  let rates, cost_est, fitted = fit ~prior_strength ~min_samples problem events in
  let* () =
    if A.Rate_estimator.exposure rates > 0. then Ok ()
    else Error "telemetry carries no exposure (is the log empty?)"
  in
  report ~coverage rates cost_est problem fitted;
  let solve p =
    match fixed_n with
    | None -> Optimizer.ml_opt_scale ~delta p
    | Some n -> Optimizer.solve ~delta ~fixed_n:n p
  in
  let prior_plan = solve problem in
  let plan = solve fitted in
  let pinned =
    A.Predict.wall_clock fitted ~xs:prior_plan.Optimizer.xs ~n:prior_plan.Optimizer.n
  in
  Format.printf "@.re-planned under fitted parameters:@.%a@." Optimizer.pp_plan plan;
  if Float.is_finite pinned && pinned > 0. then
    Format.printf "prior plan under fitted rates: E(T_w) = %.0f s; re-plan gains %.1f%%@." pinned
      (100. *. (pinned -. plan.Optimizer.wall_clock) /. pinned);
  Option.iter
    (fun path ->
      write_bundle path fitted plan;
      Format.printf "fitted bundle written to %s@." path)
    output;
  Ok ()

(* --self-check: synthesize telemetry from a short simulated run, fit it,
   and verify the codec round-trips and the estimate brackets the truth. *)
let self_check () =
  let nb = 1e5 in
  let spec = Spec.of_string ~baseline_scale:nb "16-12-8-4" in
  let problem =
    { Optimizer.te = 20_000. *. 86400.;
      speedup = Speedup.quadratic ~kappa:0.46 ~n_star:nb;
      levels = Level.fti_fusion;
      alloc = 60.;
      spec }
  in
  let plan = Optimizer.ml_opt_scale problem in
  let config = Ckpt_sim.Run_config.of_plan ~problem ~plan () in
  let events, outcome = A.Telemetry.of_run ~seed:7 config in
  let* () = if outcome.Ckpt_sim.Outcome.completed then Ok () else Error "self-check run did not complete" in
  let* () =
    let round_trip e =
      match A.Telemetry.of_line (A.Telemetry.to_line e) with
      | Ok e' -> e' = e
      | Error _ -> false
    in
    if List.for_all round_trip events then Ok ()
    else Error "self-check: telemetry codec does not round-trip"
  in
  let rates, _, fitted = fit ~prior_strength:0. ~min_samples:3 problem events in
  let* () =
    if A.Rate_estimator.total_count rates > 0 then Ok ()
    else Error "self-check: no failures observed"
  in
  let truth = Spec.total_rate_per_second spec ~scale:nb in
  let fitted_total = Spec.total_rate_per_second fitted.Optimizer.spec ~scale:nb in
  let* () =
    if fitted_total > 0.2 *. truth && fitted_total < 5. *. truth then Ok ()
    else
      Error
        (Printf.sprintf "self-check: fitted total rate %.3e implausible vs true %.3e" fitted_total
           truth)
  in
  let replan = Optimizer.ml_opt_scale fitted in
  if replan.Optimizer.converged then Ok () else Error "self-check: replan did not converge"

let run self input te_days rates kappa n_star alloc costs pfs_alpha fixed_n delta coverage
    prior_strength min_samples output =
  if self then
    match self_check () with
    | Ok () ->
        print_endline "self-check ok";
        Ok ()
    | Error m -> Error m
  else
    match input with
    | None -> Error "--input FILE is required (or use --self-check)"
    | Some input ->
        (try
           run_fit input te_days rates kappa n_star alloc costs pfs_alpha fixed_n delta coverage
             prior_strength min_samples output
         with Invalid_argument m | Failure m -> Error m)

let input =
  Arg.(value & opt (some string) None
       & info [ "input"; "i" ] ~docv:"FILE" ~doc:"Telemetry log, one JSON event per line.")

let te_days = Arg.(value & opt float 3e6 & info [ "te-days" ] ~doc:"Workload in core-days.")

let rates =
  Arg.(value & opt string "16-12-8-4"
       & info [ "rates" ] ~doc:"Prior per-level failures/day at the baseline scale.")

let kappa = Arg.(value & opt float 0.46 & info [ "kappa" ] ~doc:"Speedup slope at the origin.")
let n_star = Arg.(value & opt float 1e6 & info [ "n-star" ] ~doc:"Ideal (peak) scale in cores.")
let alloc = Arg.(value & opt float 60. & info [ "alloc" ] ~doc:"Allocation period A in seconds.")

let costs =
  Arg.(value & opt (list float) []
       & info [ "costs" ] ~doc:"Constant per-level checkpoint costs (overrides FTI defaults).")

let pfs_alpha =
  Arg.(value & opt float 0.
       & info [ "pfs-alpha" ] ~doc:"Linear scale coefficient of the last level's cost.")

let fixed_n =
  Arg.(value & opt (some float) None
       & info [ "fixed-n" ] ~doc:"Pin the execution scale instead of re-optimizing it.")

let delta =
  Arg.(value & opt float 1e-9 & info [ "delta" ] ~doc:"Outer-loop convergence threshold.")

let coverage =
  Arg.(value & opt float 0.95 & info [ "coverage" ] ~doc:"Confidence-interval coverage in (0, 1 - 2^-52].")

let prior_strength =
  Arg.(value & opt float 0.
       & info [ "prior-strength" ]
           ~doc:"Core-seconds of pseudo-exposure shrinking rates toward the prior.")

let min_samples =
  Arg.(value & opt int 3
       & info [ "cost-min-samples" ]
           ~doc:"Observations required before a level's cost law is re-calibrated.")

let output =
  Arg.(value & opt (some string) None
       & info [ "output"; "o" ] ~docv:"FILE"
           ~doc:"Write the fitted problem + re-planned plan bundle as JSON.")

let self_check_flag =
  Arg.(value & flag & info [ "self-check" ] ~doc:"Run the built-in end-to-end check and exit.")

let cmd =
  let doc = "Fit checkpoint-model parameters from execution telemetry and re-plan" in
  let term =
    Term.(const run $ self_check_flag $ input $ te_days $ rates $ kappa $ n_star $ alloc $ costs
          $ pfs_alpha $ fixed_n $ delta $ coverage $ prior_strength $ min_samples $ output)
  in
  Cmd.v (Cmd.info "ckpt-adapt" ~doc) Term.(term_result' term)

let () = exit (Cmd.eval cmd)
