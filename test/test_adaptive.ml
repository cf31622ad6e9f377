(* Tests for ckpt_adaptive: telemetry codec, rate/cost estimators,
   drift detection, controller hysteresis, and the closed-loop harness —
   including the headline property that the adaptive policy beats the
   static plan when the true rates shift. *)

open Ckpt_model
module A = Ckpt_adaptive
module Telemetry = A.Telemetry
module Rate_estimator = A.Rate_estimator
module Cost_estimator = A.Cost_estimator
module Spec = Ckpt_failures.Failure_spec
module Arrivals = Ckpt_failures.Arrivals
module Rng = Ckpt_numerics.Rng
module Json = Ckpt_json.Json

let approx ?(tol = 1e-9) what expected got =
  if Float.abs (got -. expected) > tol *. Float.max 1. (Float.abs expected) then
    Alcotest.failf "%s: expected %.12g, got %.12g" what expected got

(* A small, fast-to-solve problem family shared across tests. *)
let mk_problem ?(te_days = 1e4) ?(n_star = 1e5) ?(rates = "16-12-8-4") () =
  { Optimizer.te = te_days *. 86_400.;
    speedup = Speedup.quadratic ~kappa:0.46 ~n_star;
    levels = Level.fti_fusion;
    alloc = 60.;
    spec = Spec.of_string ~baseline_scale:n_star rates }

(* ---------------- telemetry codec ---------------- *)

let qcheck_telemetry_round_trip =
  let open QCheck in
  let gen =
    Gen.(
      let stamp = map (fun i -> float_of_int i /. 16.) (int_range 0 1_000_000) in
      let dur = map (fun i -> float_of_int i /. 64.) (int_range 0 100_000) in
      let level = int_range 1 4 in
      oneof
        [ map2 (fun at scale -> Telemetry.Run_start { at; scale; levels = 4 }) stamp
            (map (fun i -> float_of_int (i + 1)) (int_range 0 1_000_000));
          map3
            (fun at duration productive ->
              Telemetry.Compute { at; duration; productive = Float.min productive duration })
            stamp dur dur;
          map3 (fun at level duration -> Telemetry.Ckpt { at; level; duration }) stamp level dur;
          map3 (fun at level duration -> Telemetry.Restart { at; level; duration }) stamp level dur;
          map2 (fun at level -> Telemetry.Failure { at; level }) stamp level;
          map2 (fun at completed -> Telemetry.Run_end { at; completed }) stamp bool ])
  in
  Test.make ~name:"telemetry JSON line round-trips" ~count:500 (make gen) (fun event ->
      match Telemetry.of_line (Telemetry.to_line event) with
      | Ok event' -> event' = event
      | Error _ -> false)

let test_read_lines_errors () =
  (match Telemetry.read_lines [ {|{"t":0,"ev":"failure","level":1}|}; ""; "not json" ] with
  | Error m -> Alcotest.(check bool) "error names line 3" true (String.contains m '3')
  | Ok _ -> Alcotest.fail "malformed line accepted");
  match Telemetry.read_lines [ ""; {|{"t":1.5,"ev":"end","completed":true}|}; "" ] with
  | Ok [ Telemetry.Run_end { at; completed = true } ] -> approx "timestamp" 1.5 at
  | Ok _ -> Alcotest.fail "wrong decode"
  | Error m -> Alcotest.failf "blank lines should be skipped: %s" m

(* ---------------- rate estimator ---------------- *)

(* Telemetry for a failure stream observed over [horizon] seconds at
   [scale] cores: exposure comes from the Run_start/Run_end bracket and
   the failures land in between. *)
let stream_telemetry ~spec ~laws ~scale ~horizon ~seed =
  let rng = Rng.of_int seed in
  let arrivals = Arrivals.create ~laws ~rng ~spec ~scale () in
  let failures =
    List.map
      (fun { Arrivals.at; level } -> Telemetry.Failure { at; level })
      (Arrivals.sequence arrivals ~horizon)
  in
  (Telemetry.Run_start { at = 0.; scale; levels = Spec.levels spec } :: failures)
  @ [ Telemetry.Run_end { at = horizon; completed = true } ]

let nb = 1e5
let true_spec = Spec.of_string ~baseline_scale:nb "10-6"

(* ~46 expected failures: enough that the MLE is meaningful, few enough
   that the interval is doing real work. *)
let stream_horizon = 2. *. 86_400.

let ingest events =
  Rate_estimator.observe_all (Rate_estimator.create ~levels:2 ()) events

let test_exposure_accounting () =
  let events = stream_telemetry ~spec:true_spec ~laws:[| Arrivals.Exponential; Arrivals.Exponential |] ~scale:nb ~horizon:stream_horizon ~seed:3 in
  let t = ingest events in
  approx "raw exposure is scale x horizon" (nb *. stream_horizon) (Rate_estimator.exposure t);
  Alcotest.(check bool) "saw failures" true (Rate_estimator.total_count t > 0)

let qcheck_mle_ci_covers_exponential =
  let open QCheck in
  Test.make ~name:"exponential stream: 95% CI covers the true rate (per-trial, wide)" ~count:60
    (make Gen.(int_range 0 100_000)) (fun seed ->
      let events =
        stream_telemetry ~spec:true_spec
          ~laws:[| Arrivals.Exponential; Arrivals.Exponential |]
          ~scale:nb ~horizon:stream_horizon ~seed
      in
      let t = ingest events in
      (* A 99.9% interval essentially never excludes the truth; the
         sharper 95%-coverage statement is tested empirically below. *)
      let lo, hi = Rate_estimator.confidence_per_day ~coverage:0.999 t ~level:1 ~baseline_scale:nb in
      let r = true_spec.Spec.rates_per_day.(0) in
      lo <= r && r <= hi)

let test_empirical_coverage () =
  let trials = 200 in
  let covered = ref 0 in
  for seed = 1 to trials do
    let events =
      stream_telemetry ~spec:true_spec
        ~laws:[| Arrivals.Exponential; Arrivals.Exponential |]
        ~scale:nb ~horizon:stream_horizon ~seed:(seed * 7)
    in
    let t = ingest events in
    let lo, hi = Rate_estimator.confidence_per_day ~coverage:0.95 t ~level:1 ~baseline_scale:nb in
    let r = true_spec.Spec.rates_per_day.(0) in
    if lo <= r && r <= hi then incr covered
  done;
  let coverage = float_of_int !covered /. float_of_int trials in
  if coverage < 0.9 then
    Alcotest.failf "empirical coverage %.3f below 0.9 (nominal 0.95)" coverage

let test_weibull_mle_recovers_mean_rate () =
  (* Weibull inter-arrivals with the scale calibrated to the same mean
     rate: count/exposure still estimates the mean rate, even though the
     process is no longer Poisson.  Long horizon, loose tolerance. *)
  List.iter
    (fun shape ->
      let events =
        stream_telemetry ~spec:true_spec
          ~laws:[| Arrivals.Weibull { shape }; Arrivals.Weibull { shape } |]
          ~scale:nb ~horizon:(20. *. stream_horizon) ~seed:5
      in
      let t = ingest events in
      let fitted = Rate_estimator.rate_per_day t ~level:1 ~baseline_scale:nb in
      let r = true_spec.Spec.rates_per_day.(0) in
      if fitted < 0.7 *. r || fitted > 1.3 *. r then
        Alcotest.failf "Weibull shape %.1f: fitted %.2f/day vs true %.2f/day" shape fitted r)
    [ 0.7; 1.5 ]

let test_garwood_zero_failures () =
  let events =
    [ Telemetry.Run_start { at = 0.; scale = 1.; levels = 1 };
      Telemetry.Run_end { at = 1000.; completed = true } ]
  in
  let t = Rate_estimator.observe_all (Rate_estimator.create ~levels:1 ()) events in
  approx "zero failures, zero point estimate" 0. (Rate_estimator.rate_per_day t ~level:1 ~baseline_scale:1.);
  let lo, hi = Rate_estimator.confidence_per_day ~coverage:0.95 t ~level:1 ~baseline_scale:1. in
  approx "lower bound is 0" 0. lo;
  (* k = 0: upper bound is -ln(alpha/2) / E = 3.68888.../1000 per
     core-second, times 86400 per day at N_b = 1. *)
  approx ~tol:1e-6 "closed-form upper bound" (-.Float.log 0.025 /. 1000. *. 86_400.) hi

let test_coverage_next_to_one () =
  (* At coverage 1 - 2^-53 the upper quantile's 1 - alpha/2 rounds to 1;
     one ulp lower, 1 - 2^-52, is still a proper interval. *)
  let events =
    [ Telemetry.Run_start { at = 0.; scale = 1.; levels = 1 };
      Telemetry.Failure { at = 10.; level = 1 };
      Telemetry.Run_end { at = 1000.; completed = true } ]
  in
  let t = Rate_estimator.observe_all (Rate_estimator.create ~levels:1 ()) events in
  let interval coverage =
    Rate_estimator.confidence_per_day ~coverage t ~level:1 ~baseline_scale:1.
  in
  Alcotest.check_raises "1 - 2^-53 is refused"
    (Invalid_argument "Rate_estimator.confidence_per_day: coverage outside (0, 1 - 2^-52]")
    (fun () -> ignore (interval (1. -. (epsilon_float /. 2.))));
  let lo, hi = interval (1. -. epsilon_float) in
  Alcotest.(check bool) "1 - 2^-52 gives finite, ordered bounds" true
    (Float.is_finite lo && Float.is_finite hi && 0. < lo && lo < hi);
  Alcotest.(check bool) "the predicate agrees" true
    (Rate_estimator.valid_coverage (1. -. epsilon_float)
    && not (Rate_estimator.valid_coverage (1. -. (epsilon_float /. 2.))))

let test_to_spec_prior_shrinkage () =
  let events =
    stream_telemetry ~spec:true_spec
      ~laws:[| Arrivals.Exponential; Arrivals.Exponential |]
      ~scale:nb ~horizon:stream_horizon ~seed:9
  in
  let t = ingest events in
  let prior = Spec.v ~baseline_scale:nb [| 50.; 40. |] in
  let pure = Rate_estimator.to_spec t ~like:prior in
  approx ~tol:1e-9 "no shrinkage = MLE"
    (Rate_estimator.rate_per_day t ~level:1 ~baseline_scale:nb)
    pure.Spec.rates_per_day.(0);
  let heavy = Rate_estimator.to_spec ~prior_strength:1e18 t ~like:prior in
  approx ~tol:1e-3 "infinite prior = prior" 50. heavy.Spec.rates_per_day.(0);
  let tau = Rate_estimator.exposure t in
  let mid = Rate_estimator.to_spec ~prior_strength:tau t ~like:prior in
  Alcotest.(check bool) "equal weight lands between" true
    (mid.Spec.rates_per_day.(0) > Float.min pure.Spec.rates_per_day.(0) 50.
    && mid.Spec.rates_per_day.(0) < Float.max pure.Spec.rates_per_day.(0) 50.)

let test_ewma_tracks_shift () =
  (* Same exposure pre- and post-shift; the decayed estimator must land
     much closer to the post-shift rate than the plain MLE does. *)
  let horizon = 5. *. 86_400. in
  let pre =
    stream_telemetry ~spec:(Spec.v ~baseline_scale:nb [| 4. |])
      ~laws:[| Arrivals.Exponential |] ~scale:nb ~horizon ~seed:21
  in
  let post =
    List.map
      (fun e -> Telemetry.shift e ~by:horizon)
      (stream_telemetry ~spec:(Spec.v ~baseline_scale:nb [| 40. |])
         ~laws:[| Arrivals.Exponential |] ~scale:nb ~horizon ~seed:22)
  in
  let events = pre @ post in
  let plain = Rate_estimator.observe_all (Rate_estimator.create ~levels:1 ()) events in
  let decayed =
    Rate_estimator.observe_all
      (Rate_estimator.create ~half_life:(0.5 *. 86_400. *. nb) ~levels:1 ())
      events
  in
  let plain_rate = Rate_estimator.rate_per_day plain ~level:1 ~baseline_scale:nb in
  let decayed_rate = Rate_estimator.rate_per_day decayed ~level:1 ~baseline_scale:nb in
  Alcotest.(check bool)
    (Printf.sprintf "EWMA %.1f/day nearer 40 than MLE %.1f/day" decayed_rate plain_rate)
    true
    (Float.abs (decayed_rate -. 40.) < Float.abs (plain_rate -. 40.));
  Alcotest.(check bool) "raw histories unaffected by decay" true
    (Rate_estimator.exposure decayed = Rate_estimator.exposure plain
    && Rate_estimator.total_count decayed = Rate_estimator.total_count plain)

(* ---------------- cost estimator ---------------- *)

let test_welford_matches_two_pass () =
  let rng = Rng.of_int 13 in
  let durations =
    Array.init 257 (fun _ -> 5. +. Ckpt_numerics.Dist.exponential rng ~rate:0.3)
  in
  let events =
    Telemetry.Run_start { at = 0.; scale = 1e4; levels = 1 }
    :: Array.to_list
         (Array.mapi
            (fun i d -> Telemetry.Ckpt { at = float_of_int i *. 100.; level = 1; duration = d })
            durations)
  in
  let t = Cost_estimator.observe_all (Cost_estimator.create ~levels:1 ()) events in
  Alcotest.(check int) "count" (Array.length durations) (Cost_estimator.ckpt_count t ~level:1);
  approx ~tol:1e-12 "mean matches two-pass" (Ckpt_numerics.Stats.mean durations)
    (Cost_estimator.ckpt_mean t ~level:1);
  approx ~tol:1e-10 "variance matches two-pass" (Ckpt_numerics.Stats.variance durations)
    (Cost_estimator.ckpt_variance t ~level:1)

let test_cost_calibration () =
  let prior = [| Level.v ~name:"l1" (Overhead.constant 10.) |] in
  let obs d n =
    [ Telemetry.Run_start { at = 0.; scale = 1e4; levels = 1 } ]
    @ List.init n (fun i -> Telemetry.Ckpt { at = float_of_int i; level = 1; duration = d })
  in
  (* Below min_samples: law unchanged. *)
  let few = Cost_estimator.observe_all (Cost_estimator.create ~levels:1 ()) (obs 25. 2) in
  let unchanged = Cost_estimator.calibrated_levels few ~prior in
  approx "too few samples leaves the prior" 10. (Overhead.cost unchanged.(0).Level.ckpt 1e4);
  (* Enough samples: rescaled to reproduce the observed mean. *)
  let enough = Cost_estimator.observe_all (Cost_estimator.create ~levels:1 ()) (obs 25. 8) in
  let fitted = Cost_estimator.calibrated_levels enough ~prior in
  approx "reproduces observed mean at observed scale" 25. (Overhead.cost fitted.(0).Level.ckpt 1e4)

(* ---------------- drift detector ---------------- *)

let drift_interarrivals ~rate ~count ~seed =
  let rng = Rng.of_int seed in
  List.init count (fun _ -> Ckpt_numerics.Dist.exponential rng ~rate)

let test_drift_silent_in_control () =
  let rate = 1e-3 in
  let d = A.Drift.create ~rate () in
  let d =
    List.fold_left A.Drift.observe d (drift_interarrivals ~rate ~count:300 ~seed:31)
  in
  Alcotest.(check bool) "no alarm at the null rate" false (A.Drift.alarmed d)

let test_drift_fires_on_shift () =
  let rate = 1e-3 in
  let d = A.Drift.create ~rate () in
  let d =
    List.fold_left A.Drift.observe d (drift_interarrivals ~rate:(10. *. rate) ~count:50 ~seed:32)
  in
  Alcotest.(check bool) "alarm on a 10x rate increase" true (A.Drift.alarmed d);
  let d = A.Drift.reset d ~rate:(10. *. rate) in
  Alcotest.(check bool) "reset clears the alarm" false (A.Drift.alarmed d)

let test_drift_fires_on_improvement () =
  let rate = 1e-3 in
  let d = A.Drift.create ~rate () in
  let d =
    List.fold_left A.Drift.observe d (drift_interarrivals ~rate:(rate /. 10.) ~count:50 ~seed:33)
  in
  Alcotest.(check bool) "alarm on a 10x rate decrease" true (A.Drift.alarmed d)

(* ---------------- controller ---------------- *)

let controller_problem = mk_problem ~te_days:3e4 ~rates:"4-3-2-1" ()

let telemetry_of ~spec ~seed problem =
  let problem = { problem with Optimizer.spec = spec } in
  let plan = Optimizer.ml_opt_scale problem in
  let config = Ckpt_sim.Run_config.of_plan ~problem ~plan () in
  fst (Telemetry.of_run ~seed config)

(* [runs] successive executions spliced into one global-time stream (the
   estimators accrue no exposure across the inter-run gaps). *)
let telemetry_of_runs ~spec ~seed ~runs problem =
  let rec go clock acc j =
    if j = runs then List.concat (List.rev acc)
    else
      let events = telemetry_of ~spec ~seed:(seed + (j * 101)) problem in
      let shifted = List.map (fun e -> Telemetry.shift e ~by:clock) events in
      let last = List.fold_left (fun _ e -> Telemetry.at e) clock shifted in
      go (last +. 3600.) (shifted :: acc) (j + 1)
  in
  go 0. [] 0

let test_hysteresis_no_replan_in_band () =
  (* Telemetry drawn from the very rates the controller believes: any
     apparent improvement is sampling noise, and no seed may replan.
     The defaults alone do not guarantee that — eight failures can mean
     zero at the PFS level, and a zero-rate level makes dropping its
     checkpoints look like a large win — so the test runs the controller
     the way a production deployment would: an evidence gate high enough
     for per-level counts and prior shrinkage worth roughly one run of
     exposure to damp early zeros. *)
  let config =
    { (A.Controller.default_config controller_problem) with
      A.Controller.improvement_threshold = 0.05;
      min_failures = 30;
      prior_strength = 1e10 }
  in
  List.iter
    (fun seed ->
      let state = A.Controller.init config in
      let events =
        telemetry_of_runs ~spec:controller_problem.Optimizer.spec ~seed ~runs:6
          controller_problem
      in
      let state, actions = A.Controller.step_all state events in
      Alcotest.(check int)
        (Printf.sprintf "seed %d: no replan on matched telemetry" seed)
        0 (List.length actions);
      Alcotest.(check bool) "the gate did evaluate" true (A.Controller.evaluations state > 0))
    [ 1; 2; 3; 4; 5 ]

let test_controller_replans_on_shift () =
  let config = A.Controller.default_config controller_problem in
  let state = A.Controller.init config in
  let shifted = Spec.of_string ~baseline_scale:nb "4-3-2-24" in
  let events = telemetry_of ~spec:shifted ~seed:2 controller_problem in
  let state, actions = A.Controller.step_all state events in
  Alcotest.(check bool) "replanned under 24x PFS rates" true (A.Controller.replans state >= 1);
  match List.rev actions with
  | A.Controller.Replanned { improvement; plan; _ } :: _ ->
      Alcotest.(check bool) "claimed improvement above threshold" true
        (improvement > config.A.Controller.improvement_threshold);
      let fitted_pfs =
        (A.Controller.estimates state).Optimizer.spec.Spec.rates_per_day.(3)
      in
      Alcotest.(check bool)
        (Printf.sprintf "fitted PFS rate %.1f/day reflects the shift" fitted_pfs)
        true (fitted_pfs > 6.);
      Alcotest.(check bool) "re-planned scale moved down" true
        (plan.Optimizer.n < (A.Controller.plan (A.Controller.init config)).Optimizer.n)
  | _ -> Alcotest.fail "expected at least one Replanned action"

let test_min_failures_gate () =
  let config =
    { (A.Controller.default_config controller_problem) with A.Controller.min_failures = max_int }
  in
  let state = A.Controller.init config in
  let shifted = Spec.of_string ~baseline_scale:nb "4-3-2-24" in
  let events = telemetry_of ~spec:shifted ~seed:2 controller_problem in
  let state, actions = A.Controller.step_all state events in
  Alcotest.(check int) "gate closed: no evaluation" 0 (A.Controller.evaluations state);
  Alcotest.(check int) "gate closed: no action" 0 (List.length actions)

(* ---------------- closed loop ---------------- *)

let test_closed_loop_adaptive_beats_static () =
  let scenario = A.Closed_loop.demo_scenario () in
  let seed = 1 in
  let static = A.Closed_loop.run ~seed scenario A.Closed_loop.Static in
  let adaptive =
    A.Closed_loop.run ~seed scenario
      (A.Closed_loop.Adaptive (A.Controller.default_config scenario.A.Closed_loop.problem))
  in
  let oracle = A.Closed_loop.run ~seed scenario A.Closed_loop.Oracle in
  List.iter
    (fun (r : A.Closed_loop.result) ->
      Alcotest.(check bool) (r.A.Closed_loop.policy ^ " completed") true r.A.Closed_loop.completed)
    [ static; adaptive; oracle ];
  Alcotest.(check bool) "the adaptive policy replanned" true (adaptive.A.Closed_loop.replans >= 1);
  Alcotest.(check int) "the static policy never replans" 0 static.A.Closed_loop.replans;
  let s = A.Closed_loop.regret static ~oracle in
  let a = A.Closed_loop.regret adaptive ~oracle in
  Alcotest.(check bool)
    (Printf.sprintf "adaptive regret %.1f%% below static regret %.1f%%" (100. *. a) (100. *. s))
    true (a < s);
  Alcotest.(check bool) "adaptive strictly faster than static" true
    (adaptive.A.Closed_loop.wall_clock < static.A.Closed_loop.wall_clock)

(* ---------------- service integration ---------------- *)

let test_service_adaptive_round_trip () =
  let service = Ckpt_service.Service.create ~workers:0 () in
  Fun.protect ~finally:(fun () -> Ckpt_service.Service.shutdown service) @@ fun () ->
  let problem = mk_problem ~te_days:1e4 ~rates:"4-3-2-1" () in
  let problem_json = Json.to_string (Codec.problem_to_json problem) in
  (* estimate before any observe: structured no-telemetry error *)
  let r = Ckpt_service.Service.handle_line service {|{"op":"estimate"}|} in
  (match Ckpt_service.Protocol.response_error r with
  | Some e -> Alcotest.(check string) "error code" "no-telemetry" e.Ckpt_service.Protocol.code
  | None -> Alcotest.fail "estimate before observe must fail");
  let events = telemetry_of ~spec:(Spec.of_string ~baseline_scale:nb "4-3-2-24") ~seed:4 problem in
  let events_json =
    Json.to_string (Json.List (List.map Telemetry.to_json events))
  in
  let responses =
    Ckpt_service.Service.handle_batch service
      [ Printf.sprintf {|{"op":"observe","events":%s}|} events_json;
        {|{"op":"estimate","baseline_scale":1e5}|};
        Printf.sprintf {|{"op":"replan","problem":%s}|} problem_json;
        {|{"op":"stats"}|} ]
  in
  List.iter
    (fun r ->
      if not (Ckpt_service.Protocol.response_ok r) then
        Alcotest.failf "response not ok: %s" (Json.to_string r))
    responses;
  match responses with
  | [ _; estimate; replan; stats ] ->
      let member path json =
        match Json.member path json with Some v -> v | None -> Alcotest.failf "missing %s" path
      in
      let rates = member "rates" (member "estimate" estimate) in
      (match rates with
      | Json.List l -> Alcotest.(check int) "one fitted rate per level" 4 (List.length l)
      | _ -> Alcotest.fail "rates not a list");
      let fitted = member "fitted_problem" replan in
      (match Json.member "rates_per_day" fitted with
      | Some (Json.List _) -> ()
      | _ -> Alcotest.fail "fitted problem carries its rates");
      (match Json.member "plan" replan with
      | Some _ -> ()
      | None -> Alcotest.fail "replan carries a plan");
      let stats = member "stats" stats in
      (match Json.to_int (member "replans" stats) with
      | Some n -> Alcotest.(check bool) "stats counted the replan" true (n >= 1)
      | None -> Alcotest.fail "replans not an int");
      (match Json.member "p95" (member "replan_ms" stats) with
      | Some (Json.Number _) -> ()
      | _ -> Alcotest.fail "replan_ms series exposes p95")
  | _ -> Alcotest.fail "expected four responses"

(* ---------------- suites ---------------- *)

let () =
  Alcotest.run "ckpt_adaptive"
    [ ("telemetry",
       [ Alcotest.test_case "read_lines errors and blanks" `Quick test_read_lines_errors ]);
      ("rates",
       [ Alcotest.test_case "exposure accounting" `Quick test_exposure_accounting;
         Alcotest.test_case "empirical CI coverage" `Slow test_empirical_coverage;
         Alcotest.test_case "Weibull mean-rate recovery" `Slow test_weibull_mle_recovers_mean_rate;
         Alcotest.test_case "Garwood bound at zero failures" `Quick test_garwood_zero_failures;
         Alcotest.test_case "coverage next to 1" `Quick test_coverage_next_to_one;
         Alcotest.test_case "prior shrinkage" `Quick test_to_spec_prior_shrinkage;
         Alcotest.test_case "EWMA tracks a rate shift" `Quick test_ewma_tracks_shift ]);
      ("costs",
       [ Alcotest.test_case "Welford matches two-pass" `Quick test_welford_matches_two_pass;
         Alcotest.test_case "calibration gates and rescales" `Quick test_cost_calibration ]);
      ("drift",
       [ Alcotest.test_case "silent in control" `Quick test_drift_silent_in_control;
         Alcotest.test_case "fires on degradation" `Quick test_drift_fires_on_shift;
         Alcotest.test_case "fires on improvement" `Quick test_drift_fires_on_improvement ]);
      ("controller",
       [ Alcotest.test_case "hysteresis holds in the noise band" `Quick
           test_hysteresis_no_replan_in_band;
         Alcotest.test_case "replans on a real shift" `Quick test_controller_replans_on_shift;
         Alcotest.test_case "min-failures gate" `Quick test_min_failures_gate ]);
      ("closed-loop",
       [ Alcotest.test_case "adaptive beats static under drift" `Slow
           test_closed_loop_adaptive_beats_static ]);
      ("service",
       [ Alcotest.test_case "observe/estimate/replan round-trip" `Quick
           test_service_adaptive_round_trip ]);
      ("properties",
       [ QCheck_alcotest.to_alcotest qcheck_telemetry_round_trip;
         (* Fixed seed: each random trial has a small (~0.1%) chance the
            99.9% interval excludes the truth, so 60 trials under a fresh
            seed fail a few percent of the time.  The sharp coverage
            statement is the empirical test; this one just needs a
            reproducible sample of seeds. *)
         QCheck_alcotest.to_alcotest
           ~rand:(Random.State.make [| 0x5eed |])
           qcheck_mle_ci_covers_exponential ]) ]
