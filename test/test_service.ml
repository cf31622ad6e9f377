(* Tests for the ckpt_service batch planning layer: fingerprinting,
   LRU cache, work queue, domain pool, protocol and the end-to-end
   service — including the property that parallel solving is
   bit-identical to sequential [Optimizer.solve]. *)

open Ckpt_model
open Ckpt_service
module Pool = Ckpt_parallel.Pool
module Work_queue = Ckpt_parallel.Work_queue
module Json = Ckpt_json.Json
module Failure_spec = Ckpt_failures.Failure_spec

(* A small, fast-to-solve problem family used throughout. *)
let mk_problem ?(te_days = 1e4) ?(kappa = 0.46) ?(n_star = 1e5) ?(alloc = 60.)
    ?(rates = "16-12-8-4") ?(levels = Level.fti_fusion) () =
  { Optimizer.te = te_days *. 86_400.;
    speedup = Speedup.quadratic ~kappa ~n_star;
    levels;
    alloc;
    spec = Failure_spec.of_string ~baseline_scale:n_star rates }

let base_problem = mk_problem ()
let problem_json p = Json.to_string (Codec.problem_to_json p)

let query ?(solution = Protocol.Ml_opt) ?fixed_n ?(delta = 1e-9) problem =
  { Protocol.problem; solution; fixed_n; delta }

(* ---------------- fingerprint ---------------- *)

let test_fingerprint_deterministic () =
  let f1 = Fingerprint.of_problem base_problem in
  let f2 = Fingerprint.of_problem (mk_problem ()) in
  Alcotest.(check string) "same problem, same fingerprint" f1 f2;
  Alcotest.(check int) "16 hex digits" 16 (String.length f1)

let test_fingerprint_distinguishes () =
  let f = Fingerprint.of_problem base_problem in
  List.iter
    (fun (what, p') ->
      Alcotest.(check bool) what false (Fingerprint.of_problem p' = f))
    [ ("te", mk_problem ~te_days:2e4 ());
      ("kappa", mk_problem ~kappa:0.47 ());
      ("alloc", mk_problem ~alloc:61. ());
      ("rates", mk_problem ~rates:"16-12-8-5" ());
      ("levels", mk_problem ~levels:Level.constant_pfs_case ()) ]

let test_fingerprint_ignores_names () =
  let renamed =
    Array.map (fun (l : Level.t) -> Level.v ~name:(l.Level.name ^ "-x") ~restart:l.Level.restart l.Level.ckpt)
      base_problem.Optimizer.levels
  in
  Alcotest.(check string) "names are labels"
    (Fingerprint.of_problem base_problem)
    (Fingerprint.of_problem { base_problem with Optimizer.levels = renamed })

(* Clean decimal values (few significant digits) perturbed by relative
   noise far below the fingerprint precision must not change the
   fingerprint; perturbations above it must. *)
let qcheck_fingerprint_noise =
  let open QCheck in
  let gen =
    Gen.(
      triple
        (map2 (fun m e -> float_of_string (Printf.sprintf "%de%d" m e)) (int_range 1 999)
           (int_range (-2) 6))
        (float_bound_inclusive 1.)
        bool)
  in
  Test.make ~name:"fingerprint invariant under sub-precision noise" ~count:200
    (make gen) (fun (x, u, negate) ->
      let x = if negate then -.x else x in
      let noisy = x *. (1. +. ((u -. 0.5) *. 1e-13)) in
      let coarse = x *. (1. +. 1e-4) in
      let fp v = Fingerprint.float_repr ~precision:9 v in
      fp x = fp noisy && fp x <> fp coarse)

let qcheck_fingerprint_problem_noise =
  let open QCheck in
  Test.make ~name:"problem fingerprint invariant under sub-precision noise" ~count:50
    (make Gen.(float_bound_inclusive 1.)) (fun u ->
      let wiggle v = v *. (1. +. ((u -. 0.5) *. 1e-13)) in
      let noisy =
        { base_problem with
          Optimizer.te = wiggle base_problem.Optimizer.te;
          alloc = wiggle base_problem.Optimizer.alloc }
      in
      let coarse = { base_problem with Optimizer.te = base_problem.Optimizer.te *. 1.001 } in
      Fingerprint.of_problem noisy = Fingerprint.of_problem base_problem
      && Fingerprint.of_problem coarse <> Fingerprint.of_problem base_problem)

(* The canonical form and key as they were written with [Printf] and
   [String.concat], kept as the oracle the buffer version must match
   byte for byte: cached entries and snapshots are keyed by them. *)
module Printf_fingerprint = struct
  let float_repr ~precision x =
    if x = 0. then "0"
    else if Float.is_nan x then "nan"
    else if x = infinity then "inf"
    else if x = neg_infinity then "-inf"
    else Printf.sprintf "%.*e" (precision - 1) x

  let speedup_repr ~f (s : Speedup.t) =
    match s.Speedup.form with
    | Speedup.Linear { kappa } -> Printf.sprintf "linear,kappa=%s" (f kappa)
    | Speedup.Quadratic { kappa; n_star } ->
        Printf.sprintf "quadratic,kappa=%s,n_star=%s" (f kappa) (f n_star)
    | Speedup.Amdahl { serial_fraction; peak } ->
        Printf.sprintf "amdahl,s=%s,peak=%s" (f serial_fraction) (f peak)
    | Speedup.Gustafson { serial_fraction; peak } ->
        Printf.sprintf "gustafson,s=%s,peak=%s" (f serial_fraction) (f peak)
    | Speedup.Custom _ -> assert false

  let overhead_repr ~f (o : Overhead.t) =
    Printf.sprintf "eps=%s,alpha=%s,h=%s" (f o.Overhead.eps) (f o.Overhead.alpha)
      o.Overhead.h_name

  let canonical ~precision (p : Optimizer.problem) =
    let f = float_repr ~precision in
    let levels =
      p.Optimizer.levels
      |> Array.map (fun (l : Level.t) ->
             Printf.sprintf "c(%s)r(%s)" (overhead_repr ~f l.Level.ckpt)
               (overhead_repr ~f l.Level.restart))
      |> Array.to_list |> String.concat ";"
    in
    let rates =
      p.Optimizer.spec.Failure_spec.rates_per_day |> Array.map f |> Array.to_list
      |> String.concat ","
    in
    Printf.sprintf "v1|alloc=%s|baseline=%s|levels=%s|rates=%s|speedup=%s|te=%s"
      (f p.Optimizer.alloc)
      (f p.Optimizer.spec.Failure_spec.baseline_scale)
      levels rates
      (speedup_repr ~f p.Optimizer.speedup)
      (f p.Optimizer.te)

  let of_problem ~precision p =
    let h = ref 0xcbf29ce484222325L in
    String.iter
      (fun c ->
        h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001b3L)
      (canonical ~precision p);
    Printf.sprintf "%016Lx" !h
end

(* Random problems over every wire-encodable speedup form and both
   overhead baselines ("0" and "N"), with floats from clean decimals,
   log-uniform magnitudes and — where no constructor checks them —
   arbitrary bit patterns (zeros, subnormals, NaN, infinities). *)
let random_problem rng =
  let int n = Random.State.int rng n in
  let log_uniform lo hi =
    exp (log lo +. Random.State.float rng (log hi -. log lo))
  in
  let magnitude () =
    match int 3 with
    | 0 -> float_of_string (Printf.sprintf "%de%d" (1 + int 999) (int 13 - 6))
    | 1 -> log_uniform 1e-12 1e12
    | _ -> log_uniform 1e-300 1e300
  in
  let any_float () =
    if int 4 = 0 then Int64.float_of_bits (Random.State.bits64 rng)
    else if Random.State.bool rng then magnitude ()
    else -.magnitude ()
  in
  let fraction () = if int 4 = 0 then 0. else Random.State.float rng 0.999 in
  let overhead () =
    if Random.State.bool rng then Overhead.constant (magnitude ())
    else
      Overhead.linear ~eps:(magnitude ())
        ~alpha:(if Random.State.bool rng then magnitude () else -.magnitude ())
  in
  let k = 1 + int 5 in
  let speedup =
    match int 4 with
    | 0 -> Speedup.linear ~kappa:(magnitude ())
    | 1 -> Speedup.quadratic ~kappa:(magnitude ()) ~n_star:(magnitude ())
    | 2 -> Speedup.amdahl ~serial_fraction:(fraction ()) ~peak:(magnitude ())
    | _ -> Speedup.gustafson ~serial_fraction:(fraction ()) ~peak:(magnitude ())
  in
  { Optimizer.te = any_float ();
    speedup;
    levels = Array.init k (fun _ -> Level.v ~restart:(overhead ()) (overhead ()));
    alloc = any_float ();
    spec =
      Failure_spec.v ~baseline_scale:(magnitude ())
        (Array.init k (fun _ -> if int 8 = 0 then 0. else magnitude ())) }

let test_fingerprint_printf_oracle () =
  let rng = Random.State.make [| 18 |] in
  let draws = 6_800 in
  for i = 0 to draws - 1 do
    let p = random_problem rng in
    let precision = 1 + (i mod 17) in
    let expected = Printf_fingerprint.canonical ~precision p in
    let got = Fingerprint.canonical ~precision p in
    if got <> expected then
      Alcotest.failf "canonical differs at precision %d:\n%s\nvs the Printf oracle\n%s"
        precision got expected;
    Alcotest.(check string)
      "of_problem equals the Printf oracle"
      (Printf_fingerprint.of_problem ~precision p)
      (Fingerprint.of_problem ~precision p)
  done;
  Alcotest.check_raises "custom speedups still refused"
    (Invalid_argument "Fingerprint.canonical: custom speedups have no canonical form")
    (fun () ->
      ignore
        (Fingerprint.canonical
           { base_problem with
             Optimizer.speedup =
               Speedup.custom ~name:"c" ~law:(Scale_fn.linear ~slope:1. ()) ~n_ideal:None }))

(* ---------------- LRU cache ---------------- *)

let test_lru_eviction () =
  let c = Lru_cache.create ~capacity:3 in
  Lru_cache.add c "a" 1;
  Lru_cache.add c "b" 2;
  Lru_cache.add c "c" 3;
  Alcotest.(check int) "full" 3 (Lru_cache.length c);
  Lru_cache.add c "d" 4;
  Alcotest.(check int) "still at capacity" 3 (Lru_cache.length c);
  Alcotest.(check bool) "LRU key evicted" false (Lru_cache.mem c "a");
  Alcotest.(check bool) "recent keys stay" true
    (Lru_cache.mem c "b" && Lru_cache.mem c "c" && Lru_cache.mem c "d");
  Alcotest.(check int) "one eviction" 1 (Lru_cache.evictions c)

let test_lru_recency_refresh () =
  let c = Lru_cache.create ~capacity:2 in
  Lru_cache.add c "a" 1;
  Lru_cache.add c "b" 2;
  (* Touch "a" so "b" becomes the eviction candidate. *)
  Alcotest.(check (option int)) "find a" (Some 1) (Lru_cache.find c "a");
  Lru_cache.add c "c" 3;
  Alcotest.(check bool) "refreshed key survives" true (Lru_cache.mem c "a");
  Alcotest.(check bool) "stale key evicted" false (Lru_cache.mem c "b")

let test_lru_replace () =
  let c = Lru_cache.create ~capacity:2 in
  Lru_cache.add c "a" 1;
  Lru_cache.add c "a" 10;
  Alcotest.(check int) "no duplicate" 1 (Lru_cache.length c);
  Alcotest.(check (option int)) "replaced" (Some 10) (Lru_cache.find c "a")

let qcheck_lru_capacity_bound =
  let open QCheck in
  Test.make ~name:"LRU never exceeds capacity" ~count:100
    (make Gen.(pair (int_range 1 8) (list_size (int_range 0 50) (int_range 0 15))))
    (fun (cap, keys) ->
      let c = Lru_cache.create ~capacity:cap in
      List.iter (fun k -> Lru_cache.add c (string_of_int k) k) keys;
      Lru_cache.length c = min cap (List.length (List.sort_uniq compare keys)))

(* ---------------- sharded cache ---------------- *)

let test_sharded_basics () =
  let c = Sharded_cache.create ~shards:4 ~capacity:10 () in
  Alcotest.(check int) "shards" 4 (Sharded_cache.shards c);
  Alcotest.(check int) "capacity adds up" 10 (Sharded_cache.capacity c);
  (* Fingerprint-shaped keys land on shards by leading nibble. *)
  List.iter
    (fun (k, v) -> Sharded_cache.add c k v)
    [ ("0abc", 1); ("1abc", 2); ("aabc", 3); ("0abc", 10) ];
  Alcotest.(check int) "replace does not duplicate" 3 (Sharded_cache.length c);
  Alcotest.(check (option int)) "replaced" (Some 10) (Sharded_cache.find c "0abc");
  Alcotest.(check bool) "mem" true (Sharded_cache.mem c "aabc");
  Sharded_cache.clear c;
  Alcotest.(check int) "cleared" 0 (Sharded_cache.length c)

let test_sharded_validation () =
  let rejected f = try f () |> ignore; false with Invalid_argument _ -> true in
  Alcotest.(check bool) "non-power-of-two" true
    (rejected (fun () -> (Sharded_cache.create ~shards:3 ~capacity:9 () : int Sharded_cache.t)));
  Alcotest.(check bool) "capacity below shards" true
    (rejected (fun () -> (Sharded_cache.create ~shards:8 ~capacity:4 () : int Sharded_cache.t)))

let qcheck_sharded_capacity_bound =
  let open QCheck in
  Test.make ~name:"sharded cache never exceeds its global budget" ~count:100
    (make Gen.(pair (int_range 0 2) (list_size (int_range 0 80) (int_range 0 255))))
    (fun (log_shards, keys) ->
      let shards = 1 lsl log_shards in
      let c = Sharded_cache.create ~shards ~capacity:(max shards 6) () in
      List.iter (fun k -> Sharded_cache.add c (Printf.sprintf "%02x" k) k) keys;
      Sharded_cache.length c <= Sharded_cache.capacity c
      && Sharded_cache.length c
         <= List.length (List.sort_uniq compare keys))

(* ---------------- work queue + pool ---------------- *)

let test_work_queue_fifo () =
  let q = Work_queue.create () in
  List.iter (Work_queue.push q) [ 1; 2; 3 ];
  Work_queue.close q;
  let p1 = Work_queue.pop q in
  let p2 = Work_queue.pop q in
  let p3 = Work_queue.pop q in
  let p4 = Work_queue.pop q in
  Alcotest.(check (list (option int))) "drain in order"
    [ Some 1; Some 2; Some 3; None ] [ p1; p2; p3; p4 ];
  Alcotest.check_raises "push after close" Work_queue.Closed (fun () -> Work_queue.push q 4)

let test_pool_map_order () =
  let pool = Pool.create ~workers:4 () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  let xs = Array.init 100 Fun.id in
  let ys = Pool.map pool ~f:(fun x -> x * x) xs in
  Alcotest.(check bool) "order preserved" true (ys = Array.map (fun x -> x * x) xs)

let test_pool_exception_does_not_kill_worker () =
  let pool = Pool.create ~workers:2 () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  (match Pool.map pool ~f:(fun x -> if x = 1 then failwith "boom" else x) [| 0; 1; 2 |] with
  | _ -> Alcotest.fail "expected Failure"
  | exception Failure m -> Alcotest.(check string) "first error re-raised" "boom" m);
  (* The pool must still be operational after a failing job. *)
  let ys = Pool.map pool ~f:(fun x -> x + 1) [| 1; 2; 3 |] in
  Alcotest.(check bool) "pool survives" true (ys = [| 2; 3; 4 |])

(* The tentpole property: fanning solves across domains returns plans
   bit-identical to solving sequentially in this domain. *)
let qcheck_parallel_bit_identical =
  let open QCheck in
  let gen =
    Gen.(
      list_size (int_range 4 10)
        (triple (float_range 5e3 5e4) (float_range 0.2 0.8) (float_range 2e4 2e5)))
  in
  Test.make ~name:"pool solves bit-identical to sequential Optimizer.solve" ~count:5
    (make gen) (fun specs ->
      let queries =
        specs
        |> List.map (fun (te_days, kappa, fixed_n) ->
               query ~fixed_n (mk_problem ~te_days ~kappa ()))
        |> Array.of_list
      in
      let sequential = Array.map Planner.run_query queries in
      let pool = Pool.create ~workers:4 () in
      let parallel =
        Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
        Pool.map pool ~f:Planner.run_query queries
      in
      parallel = sequential)

(* ---------------- protocol ---------------- *)

let test_protocol_parse_plan () =
  let line =
    Printf.sprintf {|{"id": 7, "op": "plan", "solution": "sl-opt", "problem": %s}|}
      (problem_json base_problem)
  in
  match Protocol.parse_request line with
  | { Protocol.id = Some (Json.Number 7.); request = Ok (Protocol.Plan q); _ } ->
      Alcotest.(check string) "solution" "sl-opt" (Protocol.solution_to_string q.Protocol.solution);
      Alcotest.(check (float 1e-9)) "te round-trips" base_problem.Optimizer.te
        q.Protocol.problem.Optimizer.te
  | _ -> Alcotest.fail "expected a parsed plan request"

let expect_error_code line code =
  match (Protocol.parse_request line).Protocol.request with
  | Error e -> Alcotest.(check string) ("code for " ^ line) code e.Protocol.code
  | Ok _ -> Alcotest.fail (Printf.sprintf "expected %s error for %s" code line)

let test_protocol_errors () =
  expect_error_code "not json" "parse";
  expect_error_code {|{"problem": {}}|} "invalid-request";
  expect_error_code {|{"op": "warp"}|} "invalid-request";
  expect_error_code {|{"op": "plan"}|} "invalid-request";
  expect_error_code {|{"op": "plan", "problem": {"te": 1}}|} "invalid-problem";
  expect_error_code
    (Printf.sprintf {|{"op": "plan", "solution": "warp", "problem": %s}|}
       (problem_json base_problem))
    "invalid-request";
  expect_error_code
    (Printf.sprintf {|{"op": "sweep", "param": "scale", "values": [1, -2], "problem": %s}|}
       (problem_json base_problem))
    "invalid-request"

(* The largest double below 1, 1 - 2^-53, is in (0, 1), but the upper
   bound's quantile 1 - (1 - coverage)/2 rounds to 1 there: the estimate
   is refused as invalid-request rather than failing inside the quantile
   search.  One ulp lower, 1 - 2^-52, is answered. *)
let test_protocol_estimate_coverage () =
  let service = Service.create ~workers:0 () in
  Fun.protect ~finally:(fun () -> Service.shutdown service) @@ fun () ->
  let observed =
    Service.handle_line service
      {|{"op":"observe","events":[{"t":0,"ev":"start","scale":1000,"levels":1},{"t":10,"ev":"failure","level":1},{"t":3600,"ev":"end","completed":true}]}|}
  in
  Alcotest.(check bool) "observe answered" true (Protocol.response_ok observed);
  let estimate coverage =
    Service.handle_line service
      (Printf.sprintf {|{"op":"estimate","coverage":%s}|} coverage)
  in
  (match Protocol.response_error (estimate "0.9999999999999999") with
  | Some e -> Alcotest.(check string) "1 - 2^-53" "invalid-request" e.Protocol.code
  | None -> Alcotest.fail "expected coverage 1 - 2^-53 to be refused");
  Alcotest.(check bool) "1 - 2^-52 answered" true
    (Protocol.response_ok (estimate "0.9999999999999998"))

(* A pinned scale past the speedup's zero (N >= 2 n_star for the
   quadratic law) has no productive time: the fig5 problem (n_star 1e6)
   refuses it at the boundary as invalid-request, naming the value,
   instead of tripping an assertion in the solver. *)
let test_protocol_scale_range () =
  let fig5 = mk_problem ~te_days:3e6 ~n_star:1e6 () in
  let pj = problem_json fig5 in
  let linear =
    problem_json { fig5 with Optimizer.speedup = Speedup.linear ~kappa:0.46 }
  in
  let service = Service.create ~workers:0 () in
  Fun.protect ~finally:(fun () -> Service.shutdown service) @@ fun () ->
  let refused line needle =
    match Protocol.response_error (Service.handle_line service line) with
    | Some e ->
        Alcotest.(check string) ("code for " ^ needle) "invalid-request" e.Protocol.code;
        Alcotest.(check bool)
          (Printf.sprintf "%S names %s" e.Protocol.message needle)
          true
          (let n = String.length needle and m = e.Protocol.message in
           let rec has i =
             i + n <= String.length m && (String.sub m i n = needle || has (i + 1))
           in
           has 0)
    | None -> Alcotest.failf "expected an invalid-request for %s" needle
  in
  refused (Printf.sprintf {|{"op":"plan","fixed_n":3e6,"problem":%s}|} pj) "fixed_n 3000000";
  refused (Printf.sprintf {|{"op":"plan","fixed_n":2e6,"problem":%s}|} pj) "fixed_n 2000000";
  refused
    (Printf.sprintf {|{"op":"sweep","param":"scale","values":[1e6,2.5e6],"problem":%s}|} pj)
    "sweep value 2500000";
  refused
    (Printf.sprintf {|{"op":"batch-plan","fixed_n":2e6,"problems":[%s,%s]}|} linear pj)
    "problems[1]: fixed_n 2000000";
  (* Inside the range the request is served as before: at 1.9e6 the
     multilevel solve gives up and the fallback chain answers. *)
  let inside =
    Service.handle_line service
      (Printf.sprintf {|{"op":"plan","fixed_n":1.9e6,"problem":%s}|} pj)
  in
  Alcotest.(check bool) "1.9e6 answered" true (Protocol.response_ok inside);
  Alcotest.(check bool) "1.9e6 degraded" true (Protocol.response_degraded inside)

(* Satellite: a spec/hierarchy level-count mismatch must come back as a
   structured invalid-problem response, not an exception. *)
let test_protocol_level_count_mismatch () =
  let mismatched =
    Json.to_string
      (Json.Obj
         [ ("op", Json.String "plan");
           ("problem",
            (* 4 levels but only 3 rates: Codec accepts shapes the
               optimizer rejects only via check_problem when arities
               match; here the codec itself guards, so also test the
               deeper path through a 0-level hierarchy. *)
            Json.Obj
              [ ("te", Json.Number 8.64e8);
                ("speedup",
                 Json.Obj
                   [ ("kind", Json.String "quadratic"); ("kappa", Json.Number 0.46);
                     ("n_star", Json.Number 1e5) ]);
                ("levels", Json.List []);
                ("alloc", Json.Number 60.);
                ("rates_per_day", Json.List []);
                ("baseline_scale", Json.Number 1e5) ]) ])
  in
  (match (Protocol.parse_request mismatched).Protocol.request with
  | Error e -> Alcotest.(check string) "empty hierarchy rejected" "invalid-problem" e.Protocol.code
  | Ok _ -> Alcotest.fail "0-level problem must be rejected");
  let arity =
    Printf.sprintf {|{"op": "plan", "problem": %s}|}
      (Json.to_string
         (match Codec.problem_to_json base_problem with
         | Json.Obj fields ->
             Json.Obj
               (List.map
                  (function
                    | ("rates_per_day", _) -> ("rates_per_day", Json.float_array [| 16.; 12. |])
                    | f -> f)
                  fields)
         | _ -> assert false))
  in
  match (Protocol.parse_request arity).Protocol.request with
  | Error e -> Alcotest.(check string) "rate arity rejected" "invalid-problem" e.Protocol.code
  | Ok _ -> Alcotest.fail "mismatched rates/levels must be rejected"

(* [Protocol.ops] lists exactly the ops [parse_request] routes: each
   parses to something other than "unknown op", and a name outside the
   list does not. *)
let test_protocol_ops_list () =
  let unknown op =
    match (Protocol.parse_request (Printf.sprintf {|{"op": %S}|} op)).Protocol.request with
    | Error e -> e.Protocol.message = Printf.sprintf "unknown op %S" op
    | Ok _ -> false
  in
  List.iter
    (fun op -> Alcotest.(check bool) (op ^ " is routed") false (unknown op))
    Protocol.ops;
  Alcotest.(check int) "no duplicates" (List.length Protocol.ops)
    (List.length (List.sort_uniq compare Protocol.ops));
  Alcotest.(check bool) "shutdown is the server's, not the protocol's" true
    (unknown "shutdown")

let test_check_problem_direct () =
  (* The service maps this Invalid_argument to a structured error. *)
  let bad =
    { base_problem with Optimizer.spec = Failure_spec.v ~baseline_scale:1e5 [| 1.; 2. |] }
  in
  Alcotest.check_raises "check_problem raises"
    (Invalid_argument "Optimizer: failure spec level count differs from hierarchy")
    (fun () -> Optimizer.check_problem bad)

(* ---------------- planner ---------------- *)

let test_planner_cache_and_dedup () =
  let metrics = Metrics.create () in
  let planner = Planner.create ~cache_capacity:16 metrics in
  let q1 = query ~fixed_n:2e4 base_problem in
  let q2 = query ~fixed_n:3e4 base_problem in
  (* q1 twice in one batch: 1 solve, 1 dedup hit. *)
  let r = Planner.solve_batch planner [| q1; q2; q1 |] in
  (match (r.(0), r.(2)) with
  | ( Ok { Protocol.plan = p0; cached = false; degraded = None },
      Ok { Protocol.plan = p2; cached = true; degraded = None } ) ->
      Alcotest.(check bool) "dedup returns same plan" true (p0 = p2)
  | _ -> Alcotest.fail "expected fresh + deduped plan");
  let s = Metrics.snapshot metrics in
  Alcotest.(check int) "two solves" 2 s.Metrics.solves;
  Alcotest.(check int) "one hit" 1 s.Metrics.cache_hits;
  Alcotest.(check int) "two misses" 2 s.Metrics.cache_misses;
  (* Second batch: all cached. *)
  let r' = Planner.solve_batch planner [| q1; q2 |] in
  Array.iter
    (function
      | Ok { Protocol.cached; _ } -> Alcotest.(check bool) "served from cache" true cached
      | Error _ -> Alcotest.fail "unexpected error")
    r';
  Alcotest.(check int) "no new solves" 2 (Metrics.snapshot metrics).Metrics.solves

let test_planner_key_varies_with_options () =
  let planner = Planner.create (Metrics.create ()) in
  let k q = Planner.query_key planner q in
  let base = query base_problem in
  Alcotest.(check bool) "solution in key" false
    (k base = k { base with Protocol.solution = Protocol.Sl_opt });
  Alcotest.(check bool) "fixed_n in key" false
    (k base = k { base with Protocol.fixed_n = Some 1e4 });
  Alcotest.(check bool) "delta in key" false
    (k base = k { base with Protocol.delta = 1e-6 });
  Alcotest.(check string) "noise-invariant" (k base)
    (k (query (mk_problem ~te_days:(1e4 *. (1. +. 1e-14)) ())))

(* ---------------- service end-to-end ---------------- *)

let test_service_sweep_cache_and_order () =
  let service = Service.create ~workers:4 ~cache_capacity:512 () in
  Fun.protect ~finally:(fun () -> Service.shutdown service) @@ fun () ->
  let pj = problem_json base_problem in
  let sweep id values =
    Printf.sprintf {|{"id": %d, "op": "sweep", "param": "scale", "values": [%s], "problem": %s}|}
      id
      (String.concat ", " (List.map string_of_float values))
      pj
  in
  let coarse = [ 1e4; 2e4; 3e4; 4e4 ] in
  let fine = [ 2e4; 2.5e4; 3e4; 3.5e4 ] in
  let responses =
    Service.handle_batch service
      [ sweep 1 coarse; sweep 2 fine; {|{"id": 3, "op": "stats"}|} ]
  in
  Alcotest.(check int) "one response per request" 3 (List.length responses);
  List.iteri
    (fun i r ->
      Alcotest.(check bool) (Printf.sprintf "response %d ok" i) true (Protocol.response_ok r);
      match Json.member "id" r with
      | Some (Json.Number id) -> Alcotest.(check int) "order preserved" (i + 1) (int_of_float id)
      | _ -> Alcotest.fail "missing id")
    responses;
  (* 2e4 and 3e4 appear in both sweeps: 8 queries, 6 unique. *)
  let s = Metrics.snapshot (Service.metrics service) in
  Alcotest.(check int) "8 queries" 8 s.Metrics.queries;
  Alcotest.(check int) "6 solves" 6 s.Metrics.solves;
  Alcotest.(check int) "2 cache hits" 2 s.Metrics.cache_hits;
  (* A sweep's points share one problem, so they warm-start from each
     other: each plan must be plan-equivalent to the confirmed reference
     solve of its point (byte-identity across worker counts is the fig5
     test's). *)
  let sweep1 = List.nth responses 0 in
  (match Json.list_field "results" sweep1 with
  | Some points ->
      List.iter2
        (fun v point ->
          match Option.map Codec.plan_of_json (Json.member "plan" point) with
          | Some (Ok plan) ->
              Oracle.check_equiv_plan ~strict_n:true
                (Printf.sprintf "swept plan at n=%g" v)
                plan
                (Oracle.solve_confirmed ~fixed_n:v base_problem)
          | _ -> Alcotest.fail "sweep point has no plan")
        coarse points
  | None -> Alcotest.fail "sweep response has no results");
  (* Hit rate must be reported in the stats response. *)
  let stats = List.nth responses 2 in
  match Option.bind (Json.member "stats" stats) (Json.member "cache") with
  | Some cache ->
      Alcotest.(check (option (float 1e-9))) "hit rate reported" (Some 0.25)
        (Json.float_field "hit_rate" cache)
  | None -> Alcotest.fail "stats response has no cache section"

(* Every answer is byte-identical for any worker count: the planner cuts
   a batch's misses into segments by the rows alone, never by pool
   size.  The Fig. 5 session — 1,006 sweep points over five sweeps of
   one shared problem each, plus a simulate-validate — goes through as
   one batch (its stats line, which carries timings, left out). *)
let test_fig5_worker_count_identity () =
  let path =
    if Sys.file_exists "examples/fig5_sweep.jsonl" then "examples/fig5_sweep.jsonl"
    else "../examples/fig5_sweep.jsonl"
  in
  let lines =
    In_channel.with_open_text path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "" && Json.string_field "op" (Json.parse l) <> Some "stats")
  in
  Alcotest.(check int) "six request lines" 6 (List.length lines);
  let run workers =
    let service = Service.create ~workers () in
    Fun.protect ~finally:(fun () -> Service.shutdown service) @@ fun () ->
    Service.handle_batch_lines service lines
  in
  let one = run 1 in
  List.iter
    (fun workers ->
      List.iteri
        (fun i (a, b) ->
          Alcotest.(check bool)
            (Printf.sprintf "line %d: %d workers = 1 worker" i workers)
            true (a = b))
        (List.combine one (run workers)))
    [ 0; 2; 4 ]

(* Acceptance-shaped property: a batch through 4 workers equals the same
   batch through a worker-less service and direct sequential solves. *)
let qcheck_service_parallel_equals_sequential =
  let open QCheck in
  Test.make ~name:"service: 4-worker batch bit-identical to sequential" ~count:3
    (make Gen.(list_size (int_range 3 6) (float_range 1e4 9e4))) (fun values ->
      let pj = problem_json base_problem in
      let lines =
        List.map
          (fun v -> Printf.sprintf {|{"op": "plan", "fixed_n": %.3f, "problem": %s}|} v pj)
          values
      in
      let run workers =
        let service = Service.create ~workers () in
        Fun.protect ~finally:(fun () -> Service.shutdown service) @@ fun () ->
        List.map Json.to_string (Service.handle_batch service lines)
      in
      run 4 = run 0)

(* [stats] reports the solver work behind the served plans and the plan
   cache's evictions.  Twenty distinct cold free-scale plans, one line
   each: the solver block's counters equal the sums over the plans
   answered (whose [fallbacks] field reads 0), and at a cache capacity
   of 8 (eight one-entry shards, all of which these fingerprints reach)
   twelve entries were evicted. *)
let test_service_stats_solver_work_and_evictions () =
  let service = Service.create ~workers:0 ~cache_capacity:8 () in
  Fun.protect ~finally:(fun () -> Service.shutdown service) @@ fun () ->
  let plans =
    List.init 20 (fun i ->
        let p = mk_problem ~te_days:(1e4 +. (float_of_int i *. 100.)) () in
        let r =
          Json.parse
            (Service.handle_line_string service
               (Printf.sprintf {|{"id": %d, "op": "plan", "problem": %s}|} i
                  (problem_json p)))
        in
        match Option.map Codec.plan_of_json (Json.member "plan" r) with
        | Some (Ok plan) -> plan
        | _ -> Alcotest.failf "plan %d: %s" i (Json.to_string r))
  in
  let stats =
    Json.parse (Service.handle_line_string service {|{"id": 20, "op": "stats"}|})
  in
  let count path =
    match
      List.fold_left (fun j k -> Option.bind j (Json.member k)) (Some stats)
        ("stats" :: path)
    with
    | Some (Json.Number v) -> int_of_float v
    | _ -> Alcotest.failf "stats has no %s" (String.concat "." path)
  in
  let sum f = List.fold_left (fun acc plan -> acc + f plan) 0 plans in
  Alcotest.(check bool) "cold plans evaluate Eq. 24" true
    (sum (fun p -> p.Optimizer.f_evals) > 0);
  Alcotest.(check int) "solver rows" 20 (count [ "solver"; "rows" ]);
  Alcotest.(check int) "solver f_evals" (sum (fun p -> p.Optimizer.f_evals))
    (count [ "solver"; "f_evals" ]);
  Alcotest.(check int) "solver inner iterations"
    (sum (fun p -> p.Optimizer.inner_iterations))
    (count [ "solver"; "inner_iterations" ]);
  Alcotest.(check int) "solver outer iterations"
    (sum (fun p -> p.Optimizer.outer_iterations))
    (count [ "solver"; "outer_iterations" ]);
  Alcotest.(check int) "served plans carry no fallbacks" 0
    (sum (fun p -> p.Optimizer.fallbacks));
  Alcotest.(check bool) "solver block has no fallbacks field" true
    (Option.bind (Json.member "stats" stats) (Json.member "solver")
     |> Option.map (Json.member "fallbacks")
     = Some None);
  Alcotest.(check int) "every shard holds a plan" 8
    (Sharded_cache.length (Planner.cache (Service.planner service)));
  Alcotest.(check int) "cache evictions" 12 (count [ "cache"; "evictions" ])

(* Any positive cache capacity serves: below 8 entries the default
   shard count shrinks to fit it (one shard per entry at most), so a
   small capacity is a small cache rather than a refused one.  At
   capacity 1 the second distinct plan evicts the first. *)
let test_service_small_cache_capacities () =
  List.iter
    (fun capacity ->
      let service = Service.create ~workers:0 ~cache_capacity:capacity () in
      Fun.protect ~finally:(fun () -> Service.shutdown service) @@ fun () ->
      List.iteri
        (fun i p ->
          let r =
            Json.parse
              (Service.handle_line_string service
                 (Printf.sprintf {|{"id": %d, "op": "plan", "problem": %s}|} i
                    (problem_json p)))
          in
          Alcotest.(check bool)
            (Printf.sprintf "capacity %d: plan %d answered" capacity i)
            true (Protocol.response_ok r))
        [ mk_problem (); mk_problem ~te_days:2e4 () ];
      if capacity = 1 then begin
        let stats =
          Json.parse (Service.handle_line_string service {|{"id": 2, "op": "stats"}|})
        in
        Alcotest.(check (option (float 0.))) "capacity 1: one eviction" (Some 1.)
          (Option.bind (Json.member "stats" stats) (Json.member "cache")
          |> Fun.flip Option.bind (Json.float_field "evictions"))
      end)
    [ 1; 4; 7 ]

let test_service_error_isolation () =
  let service = Service.create ~workers:2 () in
  Fun.protect ~finally:(fun () -> Service.shutdown service) @@ fun () ->
  let responses =
    Service.handle_batch service
      [ "garbage";
        Printf.sprintf {|{"id": "good", "op": "plan", "fixed_n": 2e4, "problem": %s}|}
          (problem_json base_problem) ]
  in
  match responses with
  | [ bad; good ] ->
      Alcotest.(check bool) "bad line fails" false (Protocol.response_ok bad);
      Alcotest.(check bool) "good line unaffected" true (Protocol.response_ok good);
      Alcotest.(check int) "one error counted" 1
        (Metrics.snapshot (Service.metrics service)).Metrics.errors
  | _ -> Alcotest.fail "expected two responses"

(* A handler that raises answers its own line [internal], with the bytes
   the socket server sends for it, and the batch's other lines are still
   answered: through the tree renderer and the streamed one, for a
   raising stats extra and a raising persist hook. *)
let test_service_handler_raises () =
  let plan id = Printf.sprintf {|{"id":%d,"op":"plan","fixed_n":2e4,"problem":%s}|} id
      (problem_json base_problem) in
  let observe =
    {|{"id":2,"op":"observe","events":[{"t":0,"ev":"start","scale":1000,"levels":4}]}|}
  in
  let boom = Failure "boom" in
  let internal = Json.to_string (Service.internal_response ~id:(Json.Number 2.) boom) in
  Alcotest.(check string) "the internal answer"
    {|{"id":2,"ok":false,"error":{"code":"internal","message":"Failure(\"boom\")"}}|} internal;
  List.iter
    (fun (what, middle, install) ->
      List.iter
        (fun (renderer, render) ->
          let service = Service.create ~workers:0 () in
          Fun.protect ~finally:(fun () -> Service.shutdown service) @@ fun () ->
          install service;
          match render service [ plan 1; middle; plan 3 ] with
          | [ first; second; third ] ->
              let label = Printf.sprintf "%s, %s" what renderer in
              Alcotest.(check string) (label ^ ": middle line internal") internal second;
              Alcotest.(check bool) (label ^ ": first line answered") true
                (Protocol.response_ok (Json.parse first));
              Alcotest.(check bool) (label ^ ": third line answered") true
                (Protocol.response_ok (Json.parse third))
          | rs -> Alcotest.failf "%s: %d responses for 3 lines" what (List.length rs))
        [ ("tree", fun s lines -> List.map Json.to_string (Service.handle_batch s lines));
          ("streamed", Service.handle_batch_lines) ])
    [ ( "raising stats extra",
        {|{"id":2,"op":"stats"}|},
        fun s -> Service.set_stats_extra s (Some (fun () -> raise boom)) );
      ( "raising persist hook",
        observe,
        fun s -> Service.set_persist_hook s (Some (fun _ -> raise boom)) ) ]

(* Acceptance: on hardware with cores to spare, a 4-worker pool must
   answer a large all-miss batch faster than 1 worker.  On a single-core
   machine (this is checked, not assumed) domains cannot run in
   parallel and extra ones only add stop-the-world GC synchronization,
   so the comparison is skipped rather than asserted backwards. *)
let test_service_parallel_speedup () =
  if Domain.recommended_domain_count () < 4 then
    Alcotest.skip ()
  else begin
    let pj = problem_json base_problem in
    let lines =
      [ Printf.sprintf {|{"op": "sweep", "param": "scale", "values": [%s], "problem": %s}|}
          (String.concat ", " (List.init 400 (fun i -> string_of_float (1e4 +. (float_of_int i *. 150.)))))
          pj ]
    in
    let time workers =
      let service = Service.create ~workers ~cache_capacity:1024 () in
      Fun.protect ~finally:(fun () -> Service.shutdown service) @@ fun () ->
      let t0 = Metrics.now_ms () in
      ignore (Service.handle_batch service lines);
      Metrics.now_ms () -. t0
    in
    let t1 = time 1 and t4 = time 4 in
    Alcotest.(check bool)
      (Printf.sprintf "4 workers (%.1f ms) beat 1 worker (%.1f ms)" t4 t1)
      true (t4 < t1)
  end

let test_service_simulate_validate () =
  let service = Service.create ~workers:2 () in
  Fun.protect ~finally:(fun () -> Service.shutdown service) @@ fun () ->
  let line =
    Printf.sprintf
      {|{"op": "simulate-validate", "replications": 5, "seed": 42, "fixed_n": 2e4, "problem": %s}|}
      (problem_json base_problem)
  in
  let r = Service.handle_line service line in
  Alcotest.(check bool) "ok" true (Protocol.response_ok r);
  match (Json.member "simulated" r, Json.float_field "predicted_wall_clock" r) with
  | Some sim, Some predicted ->
      Alcotest.(check (option (float 0.))) "replications" (Some 5.)
        (Json.float_field "replications" sim);
      let mean = Option.get (Json.float_field "mean" sim) in
      Alcotest.(check bool) "simulated mean within 50% of prediction" true
        (Float.abs (mean -. predicted) /. predicted < 0.5)
  | _ -> Alcotest.fail "missing simulation payload"

(* ---------------- wire fastpath ---------------- *)

(* Envelope equivalence, with problems compared through the codec
   (speedups embed closures, so structural equality is off the table). *)
let wire_query_eq (a : Protocol.query) (b : Protocol.query) =
  Codec.problem_to_json a.Protocol.problem = Codec.problem_to_json b.Protocol.problem
  && a.Protocol.solution = b.Protocol.solution
  && a.Protocol.fixed_n = b.Protocol.fixed_n
  && a.Protocol.delta = b.Protocol.delta

let wire_request_eq a b =
  match (a, b) with
  | Protocol.Plan qa, Protocol.Plan qb -> wire_query_eq qa qb
  | Protocol.Batch_plan { queries = qa }, Protocol.Batch_plan { queries = qb } ->
      Array.length qa = Array.length qb && Array.for_all2 wire_query_eq qa qb
  | ( Protocol.Sweep { base = ba; param = pa; values = va },
      Protocol.Sweep { base = bb; param = pb; values = vb } ) ->
      wire_query_eq ba bb && pa = pb && va = vb
  | ( Protocol.Replan { query = qa; prior_strength = pa },
      Protocol.Replan { query = qb; prior_strength = pb } ) ->
      wire_query_eq qa qb && pa = pb
  | ( Protocol.Simulate_validate { query = qa; replications = ra; seed = sa },
      Protocol.Simulate_validate { query = qb; replications = rb; seed = sb } ) ->
      wire_query_eq qa qb && ra = rb && sa = sb
  | _ -> a = b

let wire_envelope_eq (a : Protocol.envelope) (b : Protocol.envelope) =
  a.Protocol.id = b.Protocol.id
  && a.Protocol.op = b.Protocol.op
  &&
  match (a.Protocol.request, b.Protocol.request) with
  | Ok ra, Ok rb -> wire_request_eq ra rb
  | Error ea, Error eb -> ea = eb
  | _ -> false

let test_wire_parse_equivalence () =
  let pj = problem_json base_problem in
  let lines =
    [ Printf.sprintf {|{"op":"plan","problem":%s}|} pj;
      Printf.sprintf {|{"op":"plan","fixed_n":2e4,"problem":%s}|} pj;
      Printf.sprintf {|{"id":7,"op":"plan","solution":"sl-opt","delta":1e-6,"problem":%s}|} pj;
      Printf.sprintf {|{"problem":%s,"op":"plan","id":"late-op"}|} pj;
      Printf.sprintf {| { "op" : "plan" ,
                          "fixed_n" : 31000.5 , "problem" : %s } |} pj;
      Printf.sprintf {|{"op":"batch-plan","fixed_n":2e4,"problems":[%s,%s]}|} pj pj;
      Printf.sprintf
        {|{"op":"sweep","param":"scale","values":[1e4,2e4],"problem":%s}|} pj;
      Printf.sprintf {|{"id":null,"op":"sweep","param":"te","values":[8.64e8],"problem":%s}|} pj;
      (* Tree-only shapes: the scanner must fall back, not diverge. *)
      Printf.sprintf {|{"op":"plan","note":"extra field","problem":%s}|} pj;
      (* Other ops stop the scan at their op, wherever it comes. *)
      Printf.sprintf {|{"id":3,"op":"replan","problem":%s,"prior_strength":1e10}|} pj;
      Printf.sprintf {|{"problem":%s,"op":"simulate-validate","replications":2}|} pj;
      {|{"id":4,"op":"estimate","baseline_scale":1e6,"coverage":0.95}|};
      Printf.sprintf {|{"op":"plan","problem":%s,"op":"replan"}|} pj;
      Printf.sprintf {|{"id":"esc\"aped","op":"plan","problem":%s}|} pj;
      Printf.sprintf {|{"id":[1,2],"op":"plan","problem":%s}|} pj;
      Printf.sprintf {|{"op":"plan","fixed_n":-3,"problem":%s}|} pj;
      Printf.sprintf {|{"op":"plan","problem":%s,"problem":%s}|} pj pj;
      Printf.sprintf {|{"op":"sweep","param":"scale","values":[],"problem":%s}|} pj;
      Printf.sprintf {|{"op":"batch-plan","problems":[]}|};
      (* Numbers the tree rejects as not JSON; float_of_string alone
         would take them. *)
      Printf.sprintf {|{"op":"plan","fixed_n":+5,"problem":%s}|} pj;
      Printf.sprintf {|{"id":.5,"op":"plan","problem":%s}|} pj;
      (* Scales outside the speedup's positive range (n_star 1e5). *)
      Printf.sprintf {|{"op":"plan","fixed_n":2e5,"problem":%s}|} pj;
      Printf.sprintf {|{"op":"batch-plan","fixed_n":3e5,"problems":[%s]}|} pj;
      Printf.sprintf {|{"op":"sweep","param":"scale","values":[1e4,2.5e5],"problem":%s}|} pj;
      Printf.sprintf {|{"op":"sweep","param":"te","fixed_n":1e999,"values":[8.64e8],"problem":%s}|} pj;
      {|{"op":"stats"}|};
      {|{"id":1,"op":7}|};
      {|[{"op":"plan"}]|};
      {|{"op":"plan"}|};
      "not json at all";
      "" ]
  in
  List.iter
    (fun line ->
      Alcotest.(check bool)
        (Printf.sprintf "wire parse equals tree parse on %s"
           (String.sub line 0 (min 48 (String.length line))))
        true
        (wire_envelope_eq (Wire.parse_request line) (Protocol.parse_request line)))
    lines

(* Satellite: the streamed renderer is byte-identical to serializing the
   tree responses, across the whole op mix (fast paths and fallbacks). *)
let test_wire_lines_byte_identical () =
  let pj = problem_json base_problem in
  let pj2 = problem_json (mk_problem ~te_days:2e4 ()) in
  let lines =
    [ Printf.sprintf {|{"id":1,"op":"plan","fixed_n":2e4,"problem":%s}|} pj;
      Printf.sprintf {|{"id":"b","op":"batch-plan","fixed_n":2.1e4,"problems":[%s,%s]}|} pj pj2;
      Printf.sprintf {|{"op":"sweep","param":"scale","values":[1e4,2e4,3e4],"problem":%s}|} pj;
      Printf.sprintf {|{"id":2,"op":"plan","solution":"sl-ori","problem":%s}|} pj;
      Printf.sprintf {|{"op":"simulate-validate","replications":3,"seed":1,"fixed_n":2e4,"problem":%s}|} pj;
      (* stats is excluded: its payload embeds wall-clock timings. *)
      {|{"id":"bad","op":"plan"}|};
      "garbage line" ]
  in
  let run render =
    (* Identically configured fresh services: same cache state, same
       metrics, so the responses must agree byte for byte. *)
    let service = Service.create ~workers:0 ~cache_capacity:64 () in
    Fun.protect ~finally:(fun () -> Service.shutdown service) @@ fun () ->
    render service
  in
  let trees = run (fun s -> List.map Json.to_string (Service.handle_batch s lines)) in
  let strings = run (fun s -> Service.handle_batch_lines s lines) in
  List.iteri
    (fun i (tree, string_) ->
      Alcotest.(check string) (Printf.sprintf "response %d byte-identical" i) tree string_)
    (List.combine trees strings)

let test_wire_batch_plan_end_to_end () =
  let service = Service.create ~workers:0 () in
  Fun.protect ~finally:(fun () -> Service.shutdown service) @@ fun () ->
  let pj = problem_json base_problem in
  let pj2 = problem_json (mk_problem ~te_days:2e4 ()) in
  let r =
    Service.handle_line service
      (Printf.sprintf {|{"id":9,"op":"batch-plan","fixed_n":2e4,"problems":[%s,%s,%s]}|}
         pj pj2 pj)
  in
  Alcotest.(check bool) "ok" true (Protocol.response_ok r);
  Alcotest.(check (option string)) "op echoed" (Some "batch-plan") (Json.string_field "op" r);
  Alcotest.(check (option (float 0.))) "count" (Some 3.) (Json.float_field "count" r);
  Alcotest.(check (option (float 0.))) "solved" (Some 3.) (Json.float_field "solved" r);
  (match Json.list_field "results" r with
  | Some [ p0; p1; p2 ] ->
      (* Same problem + same envelope options twice: the third entry is
         the in-batch dedup of the first, and both match a direct solve. *)
      let plan p =
        match Option.map Codec.plan_of_json (Json.member "plan" p) with
        | Some (Ok plan) -> plan
        | _ -> Alcotest.fail "batch point has no plan"
      in
      Alcotest.(check bool) "row 0 bit-identical to direct solve" true
        (plan p0 = Planner.run_query (query ~fixed_n:2e4 base_problem));
      Alcotest.(check bool) "duplicate row deduped to the same plan" true (plan p0 = plan p2);
      Alcotest.(check bool) "distinct problem, distinct plan" true (plan p0 <> plan p1)
  | _ -> Alcotest.fail "expected three results");
  (* Atomic rejection: one bad problem fails the whole request... *)
  let bad =
    Service.handle_line service
      (Printf.sprintf {|{"op":"batch-plan","problems":[%s,{"te":0}]}|} pj)
  in
  Alcotest.(check bool) "bad problem rejects the batch" false (Protocol.response_ok bad);
  (match Protocol.response_error bad with
  | Some e ->
      Alcotest.(check string) "invalid-problem" "invalid-problem" e.Protocol.code;
      Alcotest.(check bool) "names the offending index" true
        (String.length e.Protocol.message >= 11
         && String.sub e.Protocol.message 0 11 = "problems[1]")
  | None -> Alcotest.fail "expected structured error");
  (* ...and an empty problems array is an invalid request. *)
  let empty = Service.handle_line service {|{"op":"batch-plan","problems":[]}|} in
  match Protocol.response_error empty with
  | Some e -> Alcotest.(check string) "invalid-request" "invalid-request" e.Protocol.code
  | None -> Alcotest.fail "expected structured error"

(* ---------------- fuzzing the front door ---------------- *)

(* Satellite: whatever bytes arrive on a line, the answer is a JSON
   response (structured error for garbage) — never an exception.  One
   worker-less service is shared across cases: it must survive the
   whole stream, too. *)
let fuzz_service = lazy (Service.create ~workers:0 ())

let line_survives line =
  let service = Lazy.force fuzz_service in
  match Service.handle_line service line with
  | response -> Json.to_string response <> ""
  | exception e ->
      QCheck.Test.fail_reportf "handle_line raised %s on %S" (Printexc.to_string e) line

let qcheck_fuzz_arbitrary_lines =
  let open QCheck in
  Test.make ~name:"handle_line never raises on arbitrary bytes" ~count:500
    (make Gen.(string_size ~gen:(map Char.chr (int_range 0 255)) (int_range 0 200)))
    line_survives

let qcheck_fuzz_truncated_requests =
  let open QCheck in
  let valid =
    Printf.sprintf {|{"op": "plan", "fixed_n": 2e4, "problem": %s}|} (problem_json base_problem)
  in
  Test.make ~name:"handle_line never raises on truncated requests" ~count:200
    (make Gen.(int_range 0 (String.length valid)))
    (fun len -> line_survives (String.sub valid 0 len))

(* The scanner is total and tree-equal on every prefix of a valid
   batch-plan line (mid-number, mid-string, mid-object truncations). *)
let qcheck_fuzz_wire_truncated =
  let open QCheck in
  let valid =
    Printf.sprintf {|{"id":3,"op":"batch-plan","fixed_n":2e4,"problems":[%s,%s]}|}
      (problem_json base_problem)
      (problem_json (mk_problem ~te_days:2e4 ()))
  in
  Test.make ~name:"wire parse total and tree-equal on truncated batch-plan" ~count:200
    (make Gen.(int_range 0 (String.length valid)))
    (fun len ->
      let line = String.sub valid 0 len in
      match Wire.parse_request line with
      | envelope -> wire_envelope_eq envelope (Protocol.parse_request line)
      | exception e ->
          Test.fail_reportf "Wire.parse_request raised %s on %S" (Printexc.to_string e) line)

let qcheck_fuzz_wire_garbage =
  let open QCheck in
  Test.make ~name:"wire parse tree-equal on arbitrary bytes" ~count:500
    (make Gen.(string_size ~gen:(map Char.chr (int_range 0 255)) (int_range 0 200)))
    (fun line ->
      wire_envelope_eq (Wire.parse_request line) (Protocol.parse_request line))

(* Pinned scales on both sides of the quadratic speedup's zero
   (2 n_star = 2e5 here): the scanner must bail exactly where the tree
   refuses, for plan, batch-plan and scale sweeps. *)
let qcheck_wire_scale_range =
  let open QCheck in
  let pj = problem_json base_problem in
  let lin =
    problem_json { base_problem with Optimizer.speedup = Speedup.linear ~kappa:0.46 }
  in
  let gen =
    Gen.(
      pair (int_range 0 2)
        (map (fun u -> float_of_string (Printf.sprintf "%.6g" (5e4 +. (u *. 2.5e5))))
           (float_bound_inclusive 1.)))
  in
  Test.make ~name:"wire parse tree-equal around the speedup's zero" ~count:200
    (make ~print:Print.(pair int float) gen) (fun (shape, n) ->
      let line =
        match shape with
        | 0 -> Printf.sprintf {|{"op":"plan","fixed_n":%.17g,"problem":%s}|} n pj
        | 1 ->
            Printf.sprintf {|{"op":"batch-plan","fixed_n":%.17g,"problems":[%s,%s]}|} n lin
              pj
        | _ ->
            Printf.sprintf {|{"op":"sweep","param":"scale","values":[1e4,%.17g],"problem":%s}|}
              n pj
      in
      let tree = Protocol.parse_request line in
      wire_envelope_eq (Wire.parse_request line) tree
      && Result.is_ok tree.Protocol.request = (n < 2e5))

(* The envelope's (id, op) is what the server routes on: it must equal
   what a full [Json.parse] of the line reads — the server's routing
   before the envelope carried [op] — on every kind of line the fuzzers
   produce, through both parsers. *)
let qcheck_envelope_id_op =
  let open QCheck in
  let pj = problem_json base_problem in
  let valid =
    Printf.sprintf {|{"id":3,"op":"batch-plan","fixed_n":2e4,"problems":[%s,%s]}|} pj pj
  in
  let shaped =
    [ valid;
      Printf.sprintf {|{"id":"a","op":"plan","problem":%s}|} pj;
      Printf.sprintf {|{"op":"plan","op":"sweep","id":1,"id":2,"problem":%s}|} pj;
      Printf.sprintf {|{"id":[1,{"k":null}],"op":"plan","problem":%s,"problem":%s}|} pj pj;
      {|{"op":"shutdown","id":9}|}; {|{"op":"stats","id":true}|}; {|{"op":null}|};
      {|{"op":"warp"}|}; {|{"id":"x"}|}; {|[1,2]|}; {|"plan"|}; "5"; "null"; "{}";
      {|{"op":"plan","fixed_n":+5}|} ]
  in
  let gen =
    Gen.(
      oneof
        [ string_size ~gen:(map Char.chr (int_range 0 255)) (int_range 0 200);
          map (fun len -> String.sub valid 0 len) (int_range 0 (String.length valid));
          oneofl shaped ])
  in
  Test.make ~name:"envelope (id, op) equals Json.parse's on fuzz lines" ~count:1000
    (make ~print:(Printf.sprintf "%S") gen) (fun line ->
      let expected =
        match Json.parse line with
        | json -> (Json.member "id" json, Json.string_field "op" json)
        | exception Json.Parse_error _ -> (None, None)
      in
      let id_op (e : Protocol.envelope) = (e.Protocol.id, e.Protocol.op) in
      id_op (Wire.parse_request line) = expected
      && id_op (Protocol.parse_request line) = expected)

(* The string renderer survives the same byte storm as the tree one. *)
let fuzz_service_lines = lazy (Service.create ~workers:0 ())

let qcheck_fuzz_line_strings =
  let open QCheck in
  Test.make ~name:"handle_line_string never raises on arbitrary bytes" ~count:300
    (make Gen.(string_size ~gen:(map Char.chr (int_range 0 255)) (int_range 0 200)))
    (fun line ->
      let service = Lazy.force fuzz_service_lines in
      match Service.handle_line_string service line with
      | response -> response <> ""
      | exception e ->
          Test.fail_reportf "handle_line_string raised %s on %S" (Printexc.to_string e) line)

let qcheck_fuzz_nested_json =
  let open QCheck in
  Test.make ~name:"handle_line never raises on deeply nested JSON" ~count:20
    (make Gen.(pair (int_range 1 4000) bool))
    (fun (depth, braces) ->
      let opener = if braces then "{\"a\":" else "[" in
      let buf = Buffer.create (depth * String.length opener) in
      for _ = 1 to depth do Buffer.add_string buf opener done;
      line_survives (Buffer.contents buf))

let test_fuzz_depth_limit_is_structured () =
  let service = Lazy.force fuzz_service in
  let bomb = String.concat "" (List.init 2000 (fun _ -> "[")) in
  let r = Service.handle_line service bomb in
  Alcotest.(check bool) "depth bomb is an error response" false (Protocol.response_ok r);
  match Protocol.response_error r with
  | Some e -> Alcotest.(check string) "parse error code" "parse" e.Protocol.code
  | None -> Alcotest.fail "expected a structured error payload"

let qcheck_tests =
  [ qcheck_fingerprint_noise; qcheck_fingerprint_problem_noise; qcheck_lru_capacity_bound;
    qcheck_sharded_capacity_bound;
    qcheck_parallel_bit_identical; qcheck_service_parallel_equals_sequential;
    qcheck_fuzz_arbitrary_lines; qcheck_fuzz_truncated_requests;
    qcheck_fuzz_wire_truncated; qcheck_fuzz_wire_garbage; qcheck_wire_scale_range;
    qcheck_envelope_id_op;
    qcheck_fuzz_line_strings;
    qcheck_fuzz_nested_json ]

let () =
  Alcotest.run "service"
    [ ("fingerprint",
       [ Alcotest.test_case "deterministic" `Quick test_fingerprint_deterministic;
         Alcotest.test_case "distinguishes" `Quick test_fingerprint_distinguishes;
         Alcotest.test_case "ignores names" `Quick test_fingerprint_ignores_names;
         Alcotest.test_case "Printf oracle" `Quick test_fingerprint_printf_oracle ]);
      ("lru",
       [ Alcotest.test_case "eviction at capacity" `Quick test_lru_eviction;
         Alcotest.test_case "recency refresh" `Quick test_lru_recency_refresh;
         Alcotest.test_case "replace" `Quick test_lru_replace ]);
      ("sharded-cache",
       [ Alcotest.test_case "basics" `Quick test_sharded_basics;
         Alcotest.test_case "validation" `Quick test_sharded_validation ]);
      ("pool",
       [ Alcotest.test_case "work queue fifo" `Quick test_work_queue_fifo;
         Alcotest.test_case "map preserves order" `Quick test_pool_map_order;
         Alcotest.test_case "exceptions contained" `Quick test_pool_exception_does_not_kill_worker ]);
      ("protocol",
       [ Alcotest.test_case "parse plan" `Quick test_protocol_parse_plan;
         Alcotest.test_case "error codes" `Quick test_protocol_errors;
         Alcotest.test_case "level-count mismatch" `Quick test_protocol_level_count_mismatch;
         Alcotest.test_case "fixed_n past the speedup's range" `Quick test_protocol_scale_range;
         Alcotest.test_case "estimate coverage next to 1" `Quick test_protocol_estimate_coverage;
         Alcotest.test_case "check_problem raises" `Quick test_check_problem_direct;
         Alcotest.test_case "ops list matches the router" `Quick test_protocol_ops_list ]);
      ("wire",
       [ Alcotest.test_case "parse equivalence" `Quick test_wire_parse_equivalence;
         Alcotest.test_case "streamed lines byte-identical" `Quick test_wire_lines_byte_identical;
         Alcotest.test_case "batch-plan end-to-end" `Quick test_wire_batch_plan_end_to_end ]);
      ("planner",
       [ Alcotest.test_case "cache + in-batch dedup" `Quick test_planner_cache_and_dedup;
         Alcotest.test_case "key covers solver options" `Quick test_planner_key_varies_with_options ]);
      ("service",
       [ Alcotest.test_case "sweep order, cache, plan-equivalent" `Quick
           test_service_sweep_cache_and_order;
         Alcotest.test_case "fig5 answers identical at 0/1/2/4 workers" `Quick
           test_fig5_worker_count_identity;
         Alcotest.test_case "error isolation" `Quick test_service_error_isolation;
         Alcotest.test_case "simulate-validate" `Quick test_service_simulate_validate;
         Alcotest.test_case "parallel speedup (multi-core only)" `Slow
           test_service_parallel_speedup;
         Alcotest.test_case "depth bomb answered structurally" `Quick
           test_fuzz_depth_limit_is_structured;
         Alcotest.test_case "stats: solver work and cache evictions" `Quick
           test_service_stats_solver_work_and_evictions;
         Alcotest.test_case "cache capacities 1, 4 and 7 serve" `Quick
           test_service_small_cache_capacities;
         Alcotest.test_case "a raising handler answers its line internal" `Quick
           test_service_handler_raises ]);
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_tests) ]
