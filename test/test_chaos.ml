(* Tests for ckpt_chaos and the degradation machinery it exercises:
   determinism of the fault schedule, pool worker supervision, solver
   fault classification, retry/breaker/fallback behavior in the planner,
   worker-count independence of chaos'd service responses, the
   chaos-off byte-identity contract, and a seeded soak. *)

open Ckpt_model
open Ckpt_service
module Chaos = Ckpt_chaos.Chaos
module Pool = Ckpt_parallel.Pool
module Json = Ckpt_json.Json
module Failure_spec = Ckpt_failures.Failure_spec

let mk_problem ?(te_days = 1e4) ?(kappa = 0.46) ?(n_star = 1e5) ?(alloc = 60.)
    ?(rates = "16-12-8-4") ?(levels = Level.fti_fusion) () =
  { Optimizer.te = te_days *. 86_400.;
    speedup = Speedup.quadratic ~kappa ~n_star;
    levels;
    alloc;
    spec = Failure_spec.of_string ~baseline_scale:n_star rates }

let base_problem = mk_problem ()
let problem_json = Codec.problem_to_json base_problem

let query ?(solution = Protocol.Ml_opt) ?fixed_n ?(delta = 1e-9) problem =
  { Protocol.problem; solution; fixed_n; delta }

let sites = [ Chaos.Pool; Chaos.Solver; Chaos.Line; Chaos.Telemetry ]

(* ---------------- determinism of the decision function ---------------- *)

let draws chaos =
  List.concat_map
    (fun site ->
      List.concat_map
        (fun index ->
          List.map (fun attempt -> Chaos.draw chaos ~site ~index ~attempt) [ 0; 1; 2 ])
        (List.init 50 Fun.id))
    sites

let test_draw_deterministic () =
  let spec = Chaos.spec ~seed:42 ~rate:0.3 () in
  let a = draws (Chaos.create spec) in
  let b = draws (Chaos.create spec) in
  Alcotest.(check bool) "same spec, same schedule" true (a = b);
  let c = draws (Chaos.create (Chaos.spec ~seed:43 ~rate:0.3 ())) in
  Alcotest.(check bool) "different seed, different schedule" false (a = c);
  let fired = List.filter Option.is_some a in
  Alcotest.(check bool) "rate 0.3 fires somewhere in 600 draws" true (List.length fired > 0)

let test_disabled_never_fires () =
  let chaos = Chaos.create Chaos.disabled in
  Alcotest.(check bool) "no fault ever" true (List.for_all Option.is_none (draws chaos));
  Alcotest.(check int) "nothing recorded" 0 (Chaos.injected chaos)

let test_spec_validation () =
  let check name spec =
    match Chaos.create spec with
    | _ -> Alcotest.fail (name ^ ": expected Invalid_argument")
    | exception Invalid_argument _ -> ()
  in
  check "probability above 1" { Chaos.disabled with Chaos.pool_crash = 1.5 };
  check "negative probability" { Chaos.disabled with Chaos.solver_diverge = -0.1 };
  check "site kinds sum above 1"
    { Chaos.disabled with Chaos.line_corrupt = 0.6; line_truncate = 0.6 };
  check "negative stall bound" { Chaos.disabled with Chaos.stall_max_s = -1. };
  check "non-finite skew bound" { Chaos.disabled with Chaos.skew_max_s = Float.nan }

(* ---------------- pool supervision ---------------- *)

let test_pool_survives_crashes () =
  let chaos =
    Chaos.create { Chaos.disabled with Chaos.seed = 11; pool_crash = 0.4 }
  in
  let pool = Pool.create ~chaos ~workers:2 () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  let xs = Array.init 200 Fun.id in
  let ys = Pool.map pool ~f:(fun x -> x * x) xs in
  Alcotest.(check bool) "all items computed in order" true
    (ys = Array.map (fun x -> x * x) xs);
  Alcotest.(check bool) "workers actually crashed and were respawned" true
    (Pool.respawns pool > 0);
  (* The pool keeps working after the supervisor replaced domains. *)
  let zs = Pool.map pool ~f:(fun x -> x + 1) (Array.init 50 Fun.id) in
  Alcotest.(check bool) "pool still serves after respawns" true
    (zs = Array.init 50 (fun i -> i + 1))

let test_pool_total_crash_rate_still_completes () =
  (* Even at crash probability 1 the per-item cap forces progress. *)
  let chaos = Chaos.create { Chaos.disabled with Chaos.seed = 3; pool_crash = 1. } in
  let pool = Pool.create ~chaos ~workers:2 () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  let ys = Pool.map pool ~f:(fun x -> x * 2) (Array.init 8 Fun.id) in
  Alcotest.(check bool) "map completes under 100% crash rate" true
    (ys = Array.init 8 (fun i -> i * 2))

(* ---------------- solver fault classification ---------------- *)

let test_solve_outcome_inject () =
  (match Optimizer.solve_outcome ~inject:Chaos.Diverge base_problem with
  | Optimizer.Diverged plan ->
      Alcotest.(check bool) "diverged plan still carries numbers" true
        (Float.is_finite plan.Optimizer.wall_clock)
  | _ -> Alcotest.fail "expected Diverged");
  (match Optimizer.solve_outcome ~inject:Chaos.Non_finite base_problem with
  | Optimizer.Non_finite _ -> ()
  | _ -> Alcotest.fail "expected Non_finite");
  match Optimizer.solve_outcome base_problem with
  | Optimizer.Converged plan ->
      Alcotest.(check bool) "no injection is byte-identical to solve" true
        (plan = Optimizer.solve base_problem)
  | _ -> Alcotest.fail "expected Converged"

(* ---------------- planner: retry, breaker, fallback ---------------- *)

let always_diverge seed =
  Chaos.create { Chaos.disabled with Chaos.seed; solver_diverge = 1. }

let fast_resilience =
  { Planner.default_resilience with
    Planner.max_attempts = 1;
    breaker_threshold = 2;
    breaker_cooldown = 3 }

let solve_one planner q =
  match (Planner.solve_batch planner [| q |]).(0) with
  | Ok answer -> answer
  | Error e -> Alcotest.fail ("unexpected error: " ^ e.Protocol.code)

let test_breaker_sequence () =
  let metrics = Metrics.create () in
  let planner =
    Planner.create ~resilience:fast_resilience ~chaos:(always_diverge 0) metrics
  in
  let reason i =
    (* Distinct fixed_n per request: no cache hits, every solve uncached. *)
    let q = query ~fixed_n:(1e4 +. (float_of_int i *. 500.)) base_problem in
    match (solve_one planner q).Protocol.degraded with
    | Some d -> d.Protocol.reason.Protocol.code
    | None -> Alcotest.fail "expected a degraded answer"
  in
  let codes = List.init 8 reason in
  Alcotest.(check (list string)) "primary failures, trip, cooldown, retry, trip"
    [ "solver-diverged"; "solver-diverged";  (* 2 failures trip the breaker *)
      "circuit-open"; "circuit-open"; "circuit-open";  (* cooldown = 3 *)
      "solver-diverged"; "solver-diverged";  (* retried primary trips again *)
      "circuit-open" ]
    codes;
  let s = Metrics.snapshot metrics in
  Alcotest.(check int) "two breaker trips" 2 s.Metrics.breaker_trips;
  Alcotest.(check int) "every request degraded" 8 s.Metrics.degraded;
  Alcotest.(check bool) "breaker currently open" true (Planner.breaker_open planner)

let test_retries_counted_and_deadline_respected () =
  let metrics = Metrics.create () in
  let resilience =
    { fast_resilience with Planner.max_attempts = 3; breaker_threshold = 0 }
  in
  let planner = Planner.create ~resilience ~chaos:(always_diverge 1) metrics in
  let answer = solve_one planner (query ~fixed_n:2e4 base_problem) in
  (match answer.Protocol.degraded with
  | Some d ->
      Alcotest.(check string) "reason" "solver-diverged" d.Protocol.reason.Protocol.code;
      Alcotest.(check int) "all attempts spent" 3 d.Protocol.reason.Protocol.attempts
  | None -> Alcotest.fail "expected degraded");
  Alcotest.(check int) "retries = attempts - 1" 2 (Metrics.snapshot metrics).Metrics.retries

let test_no_fallback_surfaces_error () =
  let resilience =
    { fast_resilience with Planner.fallback = false; breaker_threshold = 0 }
  in
  let planner = Planner.create ~resilience ~chaos:(always_diverge 2) (Metrics.create ()) in
  match (Planner.solve_batch planner [| query ~fixed_n:2e4 base_problem |]).(0) with
  | Error e ->
      Alcotest.(check string) "structured error" "solver-diverged" e.Protocol.code;
      Alcotest.(check int) "attempts reported" 1 e.Protocol.attempts
  | Ok _ -> Alcotest.fail "expected an error with fallback disabled"

(* Degraded answers must never be cached: once the fault clears, the
   next miss solves the primary again. *)
let test_degraded_not_cached () =
  let metrics = Metrics.create () in
  let resilience = { fast_resilience with Planner.breaker_threshold = 0 } in
  (* Seed chosen so attempt 0 of request 0 diverges but later solves of
     the same query (fresh chaos key) may not — easier: rate 1 chaos on
     the first planner, then a healthy re-query on the same planner
     can't work since chaos is per-planner.  Instead: solve, drop chaos
     by re-creating, and check the cache carries nothing over. *)
  let chaotic = Planner.create ~resilience ~chaos:(always_diverge 4) metrics in
  let q = query ~fixed_n:2e4 base_problem in
  let a1 = solve_one chaotic q in
  Alcotest.(check bool) "first answer degraded" true (a1.Protocol.degraded <> None);
  let a2 = solve_one chaotic q in
  Alcotest.(check bool) "second answer not served from cache" true
    (not a2.Protocol.cached)

(* Acceptance: a degraded answer's expected wall clock stays within 2x
   of the multilevel optimum across the paper's Table 2 rate
   configurations. *)
let test_degraded_within_2x () =
  List.iter
    (fun rates ->
      let p = mk_problem ~rates () in
      let chaos =
        Chaos.create
          { Chaos.disabled with Chaos.seed = 9; solver_diverge = 0.5; solver_non_finite = 0.5 }
      in
      let resilience = { fast_resilience with Planner.breaker_threshold = 0 } in
      let planner = Planner.create ~resilience ~chaos (Metrics.create ()) in
      let answer = solve_one planner (query p) in
      match answer.Protocol.degraded with
      | None -> Alcotest.fail (rates ^ ": expected a degraded answer under total solver chaos")
      | Some d ->
          Alcotest.(check string) (rates ^ ": first fallback is sl-opt") "sl-opt"
            (Protocol.solution_to_string d.Protocol.fallback);
          let optimum = (Optimizer.ml_opt_scale p).Optimizer.wall_clock in
          let ratio = answer.Protocol.plan.Optimizer.wall_clock /. optimum in
          Alcotest.(check bool)
            (Printf.sprintf "%s: degraded E(Tw) within 2x of optimum (ratio %.3f)" rates ratio)
            true
            (ratio >= 1. && ratio <= 2.))
    [ "16-12-8-4"; "8-6-4-2"; "4-3-2-1"; "16-8-4-2"; "8-4-2-1"; "4-2-1-0.5" ]

(* ---------------- service-level traffic ---------------- *)

let observe_line i =
  let t0 = float_of_int (i * 1000) in
  Printf.sprintf
    {|{"id": %d, "op": "observe", "events": [{"t": %g, "ev": "start", "scale": 1e5, "levels": 4}, {"t": %g, "ev": "compute", "dur": 500, "productive": 480}, {"t": %g, "ev": "failure", "level": %d}, {"t": %g, "ev": "end", "completed": true}]}|}
    i t0 (t0 +. 10.) (t0 +. 510.)
    (1 + (i mod 4))
    (t0 +. 600.)

let traffic n =
  let pj = Json.to_string problem_json in
  List.init n (fun i ->
      if i mod 17 = 0 then observe_line i
      else if i mod 13 = 0 then
        Printf.sprintf {|{"id": %d, "op": "replan", "fixed_n": %g, "problem": %s}|} i
          (2e4 +. (float_of_int i *. 10.))
          pj
      else if i mod 23 = 0 then
        Printf.sprintf
          {|{"id": %d, "op": "simulate-validate", "replications": 2, "seed": %d, "fixed_n": 2e4, "problem": %s}|}
          i i pj
      else if i mod 7 = 0 then
        Printf.sprintf {|{"id": %d, "op": "sweep", "param": "scale", "values": [%g, %g], "problem": %s}|}
          i
          (1e4 +. (float_of_int i *. 40.))
          (1.5e4 +. (float_of_int i *. 40.))
          pj
      else
        Printf.sprintf {|{"id": %d, "op": "plan", "fixed_n": %g, "problem": %s}|} i
          (1e4 +. (float_of_int i *. 150.))
          pj)

let rec chunks size = function
  | [] -> []
  | lines ->
      let rec take k acc = function
        | rest when k = 0 -> (List.rev acc, rest)
        | [] -> (List.rev acc, [])
        | x :: rest -> take (k - 1) (x :: acc) rest
      in
      let batch, rest = take size [] lines in
      batch :: chunks size rest

let run_service ?chaos ?resilience ~workers ~batch lines =
  let service = Service.create ~workers ?chaos ?resilience () in
  Fun.protect ~finally:(fun () -> Service.shutdown service) @@ fun () ->
  let responses =
    List.concat_map (fun chunk -> Service.handle_batch service chunk) (chunks batch lines)
  in
  (List.map Json.to_string responses, Metrics.snapshot (Service.metrics service))

(* A scale sweep of [points] fresh values: as many misses in one line. *)
let wide_sweep id ~points =
  Printf.sprintf {|{"id": %d, "op": "sweep", "param": "scale", "values": [%s], "problem": %s}|}
    id
    (String.concat ", "
       (List.init points (fun k ->
            Printf.sprintf "%g" (3.1e4 +. (float_of_int id *. 1e3) +. (float_of_int k *. 37.)))))
    (Json.to_string problem_json)

(* The tentpole determinism property: same chaos seed, same traffic =>
   identical fault schedule (the applied-fault log compares equal) and
   byte-identical responses at 1, 2 and 4 workers.  The last batch ends
   in two 24-point sweeps, so its misses span several segments. *)
let test_worker_count_independence () =
  let lines = traffic 60 @ [ wide_sweep 60 ~points:24; wide_sweep 61 ~points:24 ] in
  let run workers =
    let chaos = Chaos.create (Chaos.spec ~seed:21 ~rate:0.2 ()) in
    let responses, _ = run_service ~chaos ~workers ~batch:20 lines in
    (responses, Chaos.records chaos, Chaos.injected chaos)
  in
  let r1, log1, n1 = run 1 in
  let answered line =
    match Json.list_field "results" (Json.parse line) with
    | Some points -> List.length points = 24
    | None -> false
  in
  Alcotest.(check bool) "a wide sweep was answered: > 16 misses in one batch" true
    (List.exists answered r1);
  let r2, log2, n2 = run 2 in
  let r4, log4, n4 = run 4 in
  Alcotest.(check bool) "chaos fired" true (n1 > 0);
  Alcotest.(check int) "same injection count 1 vs 2" n1 n2;
  Alcotest.(check int) "same injection count 1 vs 4" n1 n4;
  Alcotest.(check bool) "identical fault schedule 1 vs 2" true (log1 = log2);
  Alcotest.(check bool) "identical fault schedule 1 vs 4" true (log1 = log4);
  Alcotest.(check bool) "identical responses 1 vs 2" true (r1 = r2);
  Alcotest.(check bool) "identical responses 1 vs 4" true (r1 = r4)

(* Chaos off => the machinery is invisible: a service with the disabled
   policy answers byte-identically to one with no policy at all, plans
   carry no degraded/attempts fields, stats no resilience block. *)
let test_chaos_off_byte_identity () =
  let lines = traffic 30 @ [ {|{"op": "stats"}|} ] in
  let bare, _ = run_service ~workers:2 ~batch:10 lines in
  let disabled, _ =
    run_service ~chaos:(Chaos.create Chaos.disabled) ~workers:2 ~batch:10 lines
  in
  (* Stats carry wall-clock timings; compare everything except them. *)
  let comparable lines = List.filteri (fun i _ -> i < List.length lines - 1) lines in
  Alcotest.(check bool) "disabled policy is invisible" true
    (comparable bare = comparable disabled);
  List.iter
    (fun line ->
      let r = Json.parse line in
      Alcotest.(check bool) "no degraded marker" true (Json.member "degraded" r = None);
      Alcotest.(check bool) "no attempts field" true (Json.member "attempts" r = None))
    (comparable bare);
  let stats = Json.parse (List.nth bare (List.length bare - 1)) in
  match Json.member "stats" stats with
  | Some s ->
      Alcotest.(check bool) "no resilience block in healthy stats" true
        (Json.member "resilience" s = None)
  | None -> Alcotest.fail "stats response missing payload"

(* Chaos on the production path, against the oracle.  Mixed plan,
   multi-row batch-plan and sweep traffic (over 16 misses, so several
   segments) under seeded solver-only faults, answered at 0 and 2
   workers: the responses must agree byte for byte, every healthy plan
   must be plan-equivalent to the confirmed reference of its query,
   every sl-opt fallback to the reference of the single-level collapse,
   and every sl-ori fallback must be Young's closed form exactly. *)
let qcheck_solver_chaos_against_oracle =
  let problems = [| mk_problem (); mk_problem ~te_days:1.2e4 ();
                    mk_problem ~te_days:1.5e4 ~rates:"8-6-4-2" ();
                    mk_problem ~te_days:2e4 ~kappa:0.5 () |] in
  let pj i = Json.to_string (Codec.problem_to_json problems.(i)) in
  let values offset count step =
    List.init count (fun k -> 1e4 +. offset +. (float_of_int k *. step))
  in
  let floats vs = String.concat ", " (List.map (Printf.sprintf "%.17g") vs) in
  (* Each line with the queries it carries, in answer order. *)
  let traffic offset =
    let sweep id i vs =
      ( Printf.sprintf {|{"id": %d, "op": "sweep", "param": "scale", "values": [%s], "problem": %s}|}
          id (floats vs) (pj i),
        List.map (fun n -> query ~fixed_n:n problems.(i)) vs )
    in
    let batch id ?(solution = Protocol.Ml_opt) ?fixed_n is =
      ( Printf.sprintf {|{"id": %d, "op": "batch-plan", "solution": "%s", %s"problems": [%s]}|}
          id
          (Protocol.solution_to_string solution)
          (match fixed_n with
          | Some n -> Printf.sprintf {|"fixed_n": %.17g, |} n
          | None -> "")
          (String.concat ", " (List.map pj is)),
        List.map (fun i -> query ~solution ?fixed_n problems.(i)) is )
    in
    let plan id ?(solution = Protocol.Ml_opt) ?fixed_n i =
      ( Printf.sprintf {|{"id": %d, "op": "plan", "solution": "%s", %s"problem": %s}|} id
          (Protocol.solution_to_string solution)
          (match fixed_n with
          | Some n -> Printf.sprintf {|"fixed_n": %.17g, |} n
          | None -> "")
          (pj i),
        [ query ~solution ?fixed_n problems.(i) ] )
    in
    [ sweep 1 0 (values offset 8 3e3);
      batch 2 ~fixed_n:(2e4 +. offset) [ 1; 2; 3 ];
      batch 3 [ 0; 1 ];
      plan 4 ~solution:Protocol.Ml_ori 1;
      plan 5 ~solution:Protocol.Sl_opt ~fixed_n:(3e4 +. offset) 2;
      batch 7 ~solution:Protocol.Sl_opt ~fixed_n:(4e4 +. offset) [ 0; 1; 2; 3 ];
      sweep 6 3 (values (offset +. 5e3) 12 4e3) ]
  in
  let points line =
    let r = Json.parse line in
    match Json.list_field "results" r with Some points -> points | None -> [ r ]
  in
  let plan_of point =
    match Option.map Codec.plan_of_json (Json.member "plan" point) with
    | Some (Ok plan) -> plan
    | _ -> QCheck.Test.fail_reportf "no plan in %s" (Json.to_string point)
  in
  let check (q : Protocol.query) point =
    let p = q.Protocol.problem and fixed_n = q.Protocol.fixed_n in
    let sl = Optimizer.single_level_problem p in
    let plan = plan_of point in
    match Json.string_field "fallback" point with
    | None ->
        Oracle.plan_equiv plan
          (match q.Protocol.solution with
          | Protocol.Sl_opt -> Oracle.solve_confirmed ?fixed_n sl
          | Protocol.Ml_ori ->
              Oracle.solve_confirmed
                ~fixed_n:
                  (Option.value fixed_n
                     ~default:(Speedup.search_upper_bound p.Optimizer.speedup ~default:1e9))
                p
          | _ -> Oracle.solve_confirmed ?fixed_n p)
    | Some "sl-opt" -> Oracle.plan_equiv plan (Oracle.solve_confirmed ?fixed_n sl)
    | Some "sl-ori" -> plan = Optimizer.sl_ori_scale ?n:fixed_n p
    | Some other -> QCheck.Test.fail_reportf "unexpected fallback %s" other
  in
  QCheck.Test.make ~name:"solver chaos: 0/2 workers agree, plans match the oracle" ~count:10
    QCheck.(make Gen.(triple (int_range 0 100_000) (float_range 0.1 0.4) (float_range 0. 1e3)))
    (fun (seed, rate, offset) ->
      let traffic = traffic offset in
      let lines = List.map fst traffic in
      let run workers =
        let chaos =
          Chaos.create
            { Chaos.disabled with
              Chaos.seed;
              solver_diverge = rate /. 2.;
              solver_non_finite = rate /. 2. }
        in
        let resilience = { Planner.default_resilience with Planner.max_attempts = 2 } in
        fst (run_service ~chaos ~resilience ~workers ~batch:(List.length lines) lines)
      in
      let r0 = run 0 in
      if r0 <> run 2 then QCheck.Test.fail_report "responses differ at 0 and 2 workers";
      List.for_all2
        (fun (_, queries) line -> List.for_all2 check queries (points line))
        traffic r0)

let well_formed line =
  let r = Json.parse line in
  Protocol.response_ok r
  || Protocol.response_degraded r
  ||
  match Protocol.response_error r with
  | Some e -> e.Protocol.code <> ""
  | None -> false

(* Satellite soak: 1000 requests at a 10% fault rate, batches of 50,
   two workers.  Completes (no hang), answers every request, and every
   response is ok, degraded, or a structured error. *)
let test_soak () =
  let lines = traffic 1000 in
  let chaos = Chaos.create (Chaos.spec ~seed:123 ~rate:0.1 ()) in
  let responses, snapshot = run_service ~chaos ~workers:2 ~batch:50 lines in
  Alcotest.(check int) "every request answered" 1000 (List.length responses);
  Alcotest.(check int) "all requests counted" 1000 snapshot.Metrics.requests;
  Alcotest.(check bool) "faults were injected" true (Chaos.injected chaos > 100);
  List.iteri
    (fun i line ->
      if not (well_formed line) then
        Alcotest.fail (Printf.sprintf "response %d malformed: %s" i line))
    responses

let () =
  Alcotest.run "chaos"
    [ ("schedule",
       [ Alcotest.test_case "draw is a pure function of the key" `Quick test_draw_deterministic;
         Alcotest.test_case "disabled never fires" `Quick test_disabled_never_fires;
         Alcotest.test_case "spec validation" `Quick test_spec_validation ]);
      ("pool",
       [ Alcotest.test_case "supervisor respawns crashed workers" `Quick test_pool_survives_crashes;
         Alcotest.test_case "progress under 100% crash rate" `Quick
           test_pool_total_crash_rate_still_completes ]);
      ("solver",
       [ Alcotest.test_case "injected outcomes classify" `Quick test_solve_outcome_inject ]);
      ("planner",
       [ Alcotest.test_case "breaker trip, cooldown, retry" `Quick test_breaker_sequence;
         Alcotest.test_case "retry accounting" `Quick test_retries_counted_and_deadline_respected;
         Alcotest.test_case "no fallback surfaces the error" `Quick test_no_fallback_surfaces_error;
         Alcotest.test_case "degraded answers are not cached" `Quick test_degraded_not_cached;
         Alcotest.test_case "degraded within 2x of optimum (Table 2)" `Quick
           test_degraded_within_2x ]);
      ("service",
       [ Alcotest.test_case "responses independent of worker count" `Quick
           test_worker_count_independence;
         Alcotest.test_case "chaos off is byte-identical" `Quick test_chaos_off_byte_identity;
         Alcotest.test_case "soak: 1k requests at 10% faults" `Quick test_soak ]);
      ("properties", [ QCheck_alcotest.to_alcotest qcheck_solver_chaos_against_oracle ]) ]
