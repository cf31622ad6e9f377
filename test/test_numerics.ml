(* Tests for the hand-rolled numerics substrate. *)

open Ckpt_numerics

let check_float = Alcotest.(check (float 1e-9))
let check_close ?(tol = 1e-6) msg expected actual = Alcotest.(check (float tol)) msg expected actual

(* ---------------- Rng ---------------- *)

let test_rng_determinism () =
  let a = Rng.of_int 7 and b = Rng.of_int 7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.of_int 7 and b = Rng.of_int 8 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.int64 a = Rng.int64 b then incr same
  done;
  Alcotest.(check bool) "different seeds differ" true (!same < 4)

let test_rng_float_range () =
  let rng = Rng.of_int 1 in
  for _ = 1 to 10_000 do
    let f = Rng.float rng in
    Alcotest.(check bool) "in [0,1)" true (f >= 0. && f < 1.)
  done

let test_rng_float_mean () =
  let rng = Rng.of_int 2 in
  let acc = ref 0. in
  let n = 100_000 in
  for _ = 1 to n do
    acc := !acc +. Rng.float rng
  done;
  check_close ~tol:0.01 "mean ~ 0.5" 0.5 (!acc /. float_of_int n)

let test_rng_int_bounds () =
  let rng = Rng.of_int 3 in
  for _ = 1 to 10_000 do
    let v = Rng.int rng 17 in
    Alcotest.(check bool) "in [0,17)" true (v >= 0 && v < 17)
  done

let test_rng_int_uniform () =
  let rng = Rng.of_int 4 in
  let h = Histogram.create ~lo:0. ~hi:8. ~bins:8 in
  for _ = 1 to 80_000 do
    Histogram.add h (float_of_int (Rng.int rng 8))
  done;
  (* chi-squared with 7 dof: 99.9th percentile ~ 24.3 *)
  Alcotest.(check bool) "uniform by chi-squared" true (Histogram.chi_squared_uniform h < 30.)

let test_rng_split_independent () =
  let parent = Rng.of_int 5 in
  let child = Rng.split parent in
  let a = Array.init 32 (fun _ -> Rng.int64 parent) in
  let b = Array.init 32 (fun _ -> Rng.int64 child) in
  Alcotest.(check bool) "streams differ" true (a <> b)

let test_rng_copy () =
  let a = Rng.of_int 6 in
  ignore (Rng.int64 a);
  let b = Rng.copy a in
  Alcotest.(check int64) "copy continues identically" (Rng.int64 a) (Rng.int64 b)

let test_rng_jump () =
  let a = Rng.of_int 9 in
  let b = Rng.copy a in
  Rng.jump b;
  Alcotest.(check bool) "jump moves the stream" true (Rng.int64 a <> Rng.int64 b)

let test_rng_bool () =
  let rng = Rng.of_int 10 in
  let trues = ref 0 in
  for _ = 1 to 10_000 do
    if Rng.bool rng then incr trues
  done;
  Alcotest.(check bool) "roughly fair" true (!trues > 4_600 && !trues < 5_400)

(* Draw [n] values, sorted, for overlap checks. *)
let sorted_window rng n =
  let a = Array.init n (fun _ -> Rng.int64 rng) in
  Array.sort Int64.compare a;
  a

(* Two-pointer count of values present in both sorted windows. *)
let common_count a b =
  let n = Array.length a and m = Array.length b in
  let rec go i j acc =
    if i >= n || j >= m then acc
    else
      match Int64.compare a.(i) b.(j) with
      | 0 -> go (i + 1) (j + 1) (acc + 1)
      | c when c < 0 -> go (i + 1) j acc
      | _ -> go i (j + 1) acc
  in
  go 0 0 0

(* The determinism contract of the parallel replication layer leans on
   split/jump substreams not revisiting each other's outputs.  With
   64-bit draws, a shared value inside 10^6-draw windows has probability
   ~3e-8 for truly independent streams — so any collision here means the
   derivation scheme is broken, not bad luck. *)
let test_rng_substreams_do_not_overlap () =
  let n = 1_000_000 in
  let parent = Rng.of_int 2024 in
  let child = Rng.split parent in
  let jumped = Rng.copy child in
  Rng.jump jumped;
  let wp = sorted_window parent n in
  let wc = sorted_window child n in
  let wj = sorted_window jumped n in
  Alcotest.(check int) "parent/child disjoint" 0 (common_count wp wc);
  Alcotest.(check int) "parent/jumped disjoint" 0 (common_count wp wj);
  Alcotest.(check int) "child/jumped disjoint" 0 (common_count wc wj)

(* ---------------- Dist ---------------- *)

let sample_mean n f =
  let acc = ref 0. in
  for _ = 1 to n do
    acc := !acc +. f ()
  done;
  !acc /. float_of_int n

let test_exponential_mean () =
  let rng = Rng.of_int 11 in
  let mean = sample_mean 200_000 (fun () -> Dist.exponential rng ~rate:0.25) in
  check_close ~tol:0.06 "mean ~ 1/rate" 4. mean

let test_exponential_positive () =
  let rng = Rng.of_int 12 in
  for _ = 1 to 10_000 do
    Alcotest.(check bool) "positive" true (Dist.exponential rng ~rate:2. >= 0.)
  done

let test_exponential_cdf_pdf () =
  check_float "cdf at 0" 0. (Dist.exponential_cdf ~rate:1. 0.);
  check_close "cdf at 1" (1. -. exp (-1.)) (Dist.exponential_cdf ~rate:1. 1.);
  check_float "pdf negative" 0. (Dist.exponential_pdf ~rate:1. (-1.));
  check_close "pdf at 0" 2. (Dist.exponential_pdf ~rate:2. 0.)

let test_weibull_shape1_is_exponential () =
  let rng = Rng.of_int 13 in
  let mean = sample_mean 200_000 (fun () -> Dist.weibull rng ~shape:1. ~scale:3.) in
  check_close ~tol:0.05 "weibull(1,s) mean = s" 3. mean

let test_normal_moments () =
  let rng = Rng.of_int 14 in
  let samples = Array.init 100_000 (fun _ -> Dist.normal rng ~mean:5. ~std:2.) in
  check_close ~tol:0.05 "mean" 5. (Stats.mean samples);
  check_close ~tol:0.05 "std" 2. (Stats.std samples)

let test_lognormal_positive () =
  let rng = Rng.of_int 15 in
  for _ = 1 to 1_000 do
    Alcotest.(check bool) "positive" true (Dist.lognormal rng ~mu:0. ~sigma:1. > 0.)
  done

let test_poisson_mean () =
  let rng = Rng.of_int 16 in
  let mean = sample_mean 50_000 (fun () -> float_of_int (Dist.poisson rng ~mean:6.5)) in
  check_close ~tol:0.08 "mean" 6.5 mean

let test_poisson_large_mean () =
  let rng = Rng.of_int 17 in
  let mean = sample_mean 20_000 (fun () -> float_of_int (Dist.poisson rng ~mean:800.)) in
  check_close ~tol:2. "normal approximation regime" 800. mean

let test_poisson_zero () =
  let rng = Rng.of_int 18 in
  Alcotest.(check int) "mean 0 -> 0" 0 (Dist.poisson rng ~mean:0.)

let test_poisson_pmf_sums () =
  let total = ref 0. in
  for k = 0 to 60 do
    total := !total +. Dist.poisson_pmf ~mean:10. k
  done;
  check_close ~tol:1e-9 "pmf sums to 1" 1. !total

let test_jitter_bounds () =
  let rng = Rng.of_int 19 in
  for _ = 1 to 10_000 do
    let v = Dist.jittered rng ~ratio:0.3 100. in
    Alcotest.(check bool) "within 30%" true (v >= 70. && v <= 130.)
  done

let test_jitter_mean_preserved () =
  let rng = Rng.of_int 20 in
  let mean = sample_mean 100_000 (fun () -> Dist.jittered rng ~ratio:0.3 50.) in
  check_close ~tol:0.2 "mean preserved" 50. mean

(* ---------------- Stats ---------------- *)

let test_stats_known () =
  let xs = [| 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. |] in
  check_float "mean" 5. (Stats.mean xs);
  check_close "variance" (32. /. 7.) (Stats.variance xs);
  check_float "min" 2. (Stats.min xs);
  check_float "max" 9. (Stats.max xs);
  check_float "median" 4.5 (Stats.median xs)

let test_stats_percentile () =
  let xs = [| 1.; 2.; 3.; 4.; 5. |] in
  check_float "p0" 1. (Stats.percentile xs 0.);
  check_float "p50" 3. (Stats.percentile xs 0.5);
  check_float "p100" 5. (Stats.percentile xs 1.);
  check_float "p25" 2. (Stats.percentile xs 0.25)

let test_stats_single () =
  let xs = [| 42. |] in
  check_float "variance of singleton" 0. (Stats.variance xs);
  check_float "median of singleton" 42. (Stats.median xs)

let test_stats_online_matches_batch () =
  let rng = Rng.of_int 21 in
  let xs = Array.init 1_000 (fun _ -> Rng.float rng *. 100.) in
  let o = Stats.Online.create () in
  Array.iter (Stats.Online.add o) xs;
  Alcotest.(check int) "count" 1_000 (Stats.Online.count o);
  check_close ~tol:1e-9 "mean" (Stats.mean xs) (Stats.Online.mean o);
  check_close ~tol:1e-6 "variance" (Stats.variance xs) (Stats.Online.variance o)

let test_stats_confidence () =
  let xs = Array.make 100 3. in
  let lo, hi = Stats.confidence95 xs in
  check_float "degenerate CI lo" 3. lo;
  check_float "degenerate CI hi" 3. hi

let test_relative_error () =
  check_float "10% error" 0.1 (Stats.relative_error ~expected:10. 11.);
  check_float "symmetric" 0.1 (Stats.relative_error ~expected:10. 9.)

(* ---------------- Histogram ---------------- *)

let test_histogram_basic () =
  let h = Histogram.create ~lo:0. ~hi:10. ~bins:10 in
  List.iter (Histogram.add h) [ 0.5; 1.5; 1.7; 9.9; -1.; 10.; 11. ];
  Alcotest.(check int) "total" 7 (Histogram.count h);
  Alcotest.(check int) "bin 0" 1 (Histogram.bin_count h 0);
  Alcotest.(check int) "bin 1" 2 (Histogram.bin_count h 1);
  Alcotest.(check int) "bin 9" 1 (Histogram.bin_count h 9);
  Alcotest.(check int) "underflow" 1 (Histogram.underflow h);
  Alcotest.(check int) "overflow" 2 (Histogram.overflow h)

let test_histogram_bounds_density () =
  let h = Histogram.create ~lo:0. ~hi:4. ~bins:4 in
  let lo, hi = Histogram.bin_bounds h 2 in
  check_float "bin lo" 2. lo;
  check_float "bin hi" 3. hi;
  List.iter (Histogram.add h) [ 0.1; 0.2; 1.1; 1.9 ];
  check_float "density bin0" 0.5 (Histogram.density h 0)

(* ---------------- Roots ---------------- *)

let test_bisect_sqrt2 () =
  let r = Roots.bisect ~f:(fun x -> (x *. x) -. 2.) ~lo:0. ~hi:2. () in
  check_close ~tol:1e-8 "sqrt 2" (sqrt 2.) r.Roots.root

let test_bisect_no_bracket () =
  Alcotest.check_raises "same signs"
    (Roots.No_bracket "bisect: f(lo)=1 and f(hi)=2 have the same sign") (fun () ->
      ignore (Roots.bisect ~f:(fun x -> x) ~lo:1. ~hi:2. ()))

let test_bisect_integer_stops_early () =
  let r = Roots.bisect_integer ~f:(fun x -> x -. 1000.5) ~lo:0. ~hi:10_000. () in
  Alcotest.(check bool) "within 0.5" true (Float.abs (r.Roots.root -. 1000.5) <= 0.5)

let test_itp_integer_matches_bisect () =
  (* Replay exactness: on single-sign-change brackets the fast finder
     must reproduce bisect_integer's root *bitwise* (same cell midpoint,
     same iteration count), not just approximately. *)
  let cases =
    [ ((fun x -> x -. 1000.5), 0., 10_000.);
      ((fun x -> x -. 1000.5), 0., 10_000_000.);
      ((fun n -> (1. /. n) -. (1. /. 181_621.25)), 1., 1_000_000.);
      ((fun x -> ((x +. 1.) ** 0.3) -. (777.77 ** 0.3)), 0., 65_536.);
      ((fun x -> 3.5 -. x), 1., 7.);
      ((fun x -> 3.5 -. x), 3.4, 3.6) ]
  in
  List.iter
    (fun (f, lo, hi) ->
      let slow = Roots.bisect_integer ~f ~lo ~hi () in
      let fast = Roots.itp_integer ~f ~lo ~hi () in
      Alcotest.(check bool) "bitwise root" true
        (Int64.bits_of_float slow.Roots.root = Int64.bits_of_float fast.Roots.root);
      Alcotest.(check int) "same iterations" slow.Roots.iterations fast.Roots.iterations)
    cases

let test_itp_integer_fewer_evals () =
  let evals = ref 0 in
  let f x = incr evals; x -. 123_456.75 in
  let slow = Roots.bisect_integer ~f ~lo:1. ~hi:1_000_000. () in
  let slow_evals = !evals in
  evals := 0;
  let fast = Roots.itp_integer ~f ~lo:1. ~hi:1_000_000. () in
  let fast_evals = !evals in
  Alcotest.(check int) "reported evals match" fast_evals fast.Roots.f_evals;
  Alcotest.(check int) "slow reported evals match" slow_evals slow.Roots.f_evals;
  Alcotest.(check bool)
    (Printf.sprintf "at most half the probes (%d vs %d)" fast_evals slow_evals)
    true
    (2 * fast_evals <= slow_evals)

let test_itp_integer_endpoint_roots () =
  let r = Roots.itp_integer ~f:(fun x -> x -. 2.) ~lo:2. ~hi:10. () in
  check_float "endpoint root" 2. r.Roots.root;
  let r = Roots.itp_integer ~flo:(-1.) ~fhi:0. ~f:(fun x -> x -. 10.) ~lo:2. ~hi:10. () in
  check_float "fhi endpoint" 10. r.Roots.root;
  Alcotest.(check int) "no evals when endpoints supplied" 0 r.Roots.f_evals

(* An inner bracket that is not inside [lo, hi], does not change sign,
   or disagrees with supplied endpoint values is refused, not searched
   (accepted brackets are drawn by the bitwise-replay property). *)
let test_itp_integer_inner_rejected () =
  let f x = x -. 1000.3 in
  let rejects msg ?flo ?fhi inner =
    match Roots.itp_integer ?flo ?fhi ~inner ~f ~lo:1. ~hi:1e6 () with
    | _ -> Alcotest.failf "%s: inner bracket accepted" msg
    | exception Invalid_argument _ -> ()
  in
  rejects "starts below lo" (0.5, f 0.5, 1001., f 1001.);
  rejects "ends above hi" (999., f 999., 2e6, f 2e6);
  rejects "reversed" (1001., f 1001., 999., f 999.);
  rejects "same signs" (1001., f 1001., 1002., f 1002.);
  rejects "zero end value" (1000.3, 0., 1001., f 1001.);
  rejects "flo disagrees" ~flo:1. (999., f 999., 1001., f 1001.);
  rejects "fhi disagrees" ~fhi:(-1.) (999., f 999., 1001., f 1001.)

let test_golden_minimum () =
  let f x = ((x -. 3.) ** 2.) +. 1. in
  let r = Roots.minimize_golden ~f ~lo:0. ~hi:10. () in
  check_close ~tol:1e-6 "argmin" 3. r.Roots.root;
  check_close ~tol:1e-6 "min value" 1. (f r.Roots.root)

(* ---------------- Fixed point ---------------- *)

let test_max_abs_diff () =
  check_float "max abs diff" 3. (Fixed_point.max_abs_diff [| 1.; 5. |] [| 2.; 2. |])

(* ---------------- Matrix ---------------- *)

let test_matrix_solve_known () =
  let a = Matrix.of_arrays [| [| 2.; 1. |]; [| 1.; 3. |] |] in
  let x = Matrix.solve a [| 5.; 10. |] in
  check_close "x0" 1. x.(0);
  check_close "x1" 3. x.(1)

let test_matrix_singular () =
  let a = Matrix.of_arrays [| [| 1.; 2. |]; [| 2.; 4. |] |] in
  Alcotest.check_raises "singular" Matrix.Singular (fun () ->
      ignore (Matrix.solve a [| 1.; 1. |]))

let test_matrix_inverse () =
  let a = Matrix.of_arrays [| [| 4.; 7. |]; [| 2.; 6. |] |] in
  let product = Matrix.mul a (Matrix.inverse a) in
  Alcotest.(check bool) "a * a^-1 = I" true (Matrix.equal ~tol:1e-9 product (Matrix.identity 2))

let test_matrix_determinant () =
  let a = Matrix.of_arrays [| [| 1.; 2. |]; [| 3.; 4. |] |] in
  check_close "det" (-2.) (Matrix.determinant a);
  check_close "det singular" 0.
    (Matrix.determinant (Matrix.of_arrays [| [| 1.; 2. |]; [| 2.; 4. |] |]))

let test_matrix_transpose_mul () =
  let a = Matrix.of_arrays [| [| 1.; 2.; 3. |]; [| 4.; 5.; 6. |] |] in
  let at = Matrix.transpose a in
  Alcotest.(check int) "rows" 3 (Matrix.rows at);
  Alcotest.(check int) "cols" 2 (Matrix.cols at);
  let g = Matrix.mul a at in
  check_close "gram 00" 14. (Matrix.get g 0 0);
  check_close "gram 01" 32. (Matrix.get g 0 1)

let test_matrix_qr () =
  let a = Matrix.of_arrays [| [| 1.; 2. |]; [| 3.; 4. |]; [| 5.; 6. |] |] in
  let q, r = Matrix.qr a in
  Alcotest.(check bool) "q r = a" true (Matrix.equal ~tol:1e-9 (Matrix.mul q r) a);
  let qtq = Matrix.mul (Matrix.transpose q) q in
  Alcotest.(check bool) "q orthogonal" true (Matrix.equal ~tol:1e-9 qtq (Matrix.identity 3));
  (* r upper triangular *)
  Alcotest.(check bool) "r triangular" true (Float.abs (Matrix.get r 1 0) < 1e-9)

let test_least_squares_exact () =
  (* Overdetermined but consistent system. *)
  let a = Matrix.of_arrays [| [| 1.; 0. |]; [| 0.; 1. |]; [| 1.; 1. |] |] in
  let x = Matrix.solve_least_squares a [| 2.; 3.; 5. |] in
  check_close "x0" 2. x.(0);
  check_close "x1" 3. x.(1)

let test_mul_vec () =
  let a = Matrix.of_arrays [| [| 1.; 2. |]; [| 3.; 4. |] |] in
  let y = Matrix.mul_vec a [| 1.; 1. |] in
  check_float "y0" 3. y.(0);
  check_float "y1" 7. y.(1)

(* ---------------- Least squares ---------------- *)

let test_polyfit_recovers () =
  let xs = Array.init 20 (fun i -> float_of_int i) in
  let ys = Array.map (fun x -> 3. +. (2. *. x) -. (0.5 *. x *. x)) xs in
  let fit = Least_squares.polyfit ~degree:2 ~xs ~ys in
  check_close ~tol:1e-6 "c0" 3. fit.Least_squares.coefficients.(0);
  check_close ~tol:1e-6 "c1" 2. fit.Least_squares.coefficients.(1);
  check_close ~tol:1e-6 "c2" (-0.5) fit.Least_squares.coefficients.(2);
  check_close ~tol:1e-6 "r2" 1. fit.Least_squares.r_squared

let test_polyfit_through_origin () =
  let xs = [| 1.; 2.; 4.; 8.; 16. |] in
  let ys = Array.map (fun x -> (0.46 *. x) -. (2.3e-6 *. x *. x)) xs in
  let fit = Least_squares.polyfit_through_origin ~degree:2 ~xs ~ys in
  check_close ~tol:1e-6 "kappa" 0.46 fit.Least_squares.coefficients.(0);
  check_close ~tol:1e-9 "quad" (-2.3e-6) fit.Least_squares.coefficients.(1)

let test_fit_affine_in () =
  let xs = [| 128.; 256.; 512.; 1024. |] in
  let ys = Array.map (fun x -> 5.5 +. (0.0212 *. x)) xs in
  let fit = Least_squares.fit_affine_in ~h:(fun x -> x) ~xs ~ys in
  check_close ~tol:1e-6 "eps" 5.5 fit.Least_squares.coefficients.(0);
  check_close ~tol:1e-9 "alpha" 0.0212 fit.Least_squares.coefficients.(1)

let test_eval_poly () =
  check_float "horner" 20. (Least_squares.eval_poly [| 2.; 3.; 1. |] 3.)

let test_fit_r_squared_partial () =
  let xs = [| 0.; 1.; 2.; 3. |] in
  let ys = [| 0.; 1.1; 1.9; 3.2 |] in
  let fit = Least_squares.polyfit ~degree:1 ~xs ~ys in
  Alcotest.(check bool) "good but imperfect" true
    (fit.Least_squares.r_squared > 0.97 && fit.Least_squares.r_squared < 1.)

(* ---------------- Derivative ---------------- *)

let test_derivative_central () =
  check_close ~tol:1e-5 "d/dx sin at 1" (cos 1.) (Derivative.central ~f:sin 1.)

let test_derivative_richardson () =
  check_close ~tol:1e-8 "richardson better" (cos 1.) (Derivative.richardson ~f:sin 1.)

let test_derivative_second () =
  check_close ~tol:1e-3 "d2/dx2 x^3 at 2" 12. (Derivative.second ~f:(fun x -> x ** 3.) 2.)

(* ---------------- Special ---------------- *)

let test_gamma_known_values () =
  check_close ~tol:1e-9 "gamma 1" 1. (Special.gamma 1.);
  check_close ~tol:1e-9 "gamma 2" 1. (Special.gamma 2.);
  check_close ~tol:1e-8 "gamma 5 = 24" 24. (Special.gamma 5.);
  check_close ~tol:1e-9 "gamma 1/2 = sqrt pi" (sqrt Float.pi) (Special.gamma 0.5)

let test_gamma_recurrence () =
  List.iter
    (fun x ->
      let lhs = Special.gamma (x +. 1.) and rhs = x *. Special.gamma x in
      Alcotest.(check bool) "Gamma(x+1) = x Gamma(x)" true
        (Float.abs (lhs -. rhs) /. rhs < 1e-9))
    [ 0.3; 1.7; 4.2; 9.9 ]

let test_log_gamma_large () =
  (* Stirling check at x = 100: ln Gamma(100) = ln 99!. *)
  let expected = ref 0. in
  for i = 2 to 99 do
    expected := !expected +. log (float_of_int i)
  done;
  check_close ~tol:1e-6 "ln 99!" !expected (Special.log_gamma 100.)

let test_factorial () =
  check_close ~tol:1e-9 "0!" 1. (Special.factorial 0);
  check_close ~tol:1e-9 "5!" 120. (Special.factorial 5);
  check_close ~tol:1e-3 "12!" 479001600. (Special.factorial 12)

(* ---------------- Incomplete gamma ---------------- *)

let test_gamma_p_exponential () =
  (* P(1, x) = 1 - e^-x, on both sides of the series/fraction split at
     x = a + 1 = 2. *)
  List.iter
    (fun x ->
      let expected = -.Float.expm1 (-.x) in
      let got = Special.gamma_p ~a:1. ~x in
      if Float.abs (got -. expected) > 1e-14 *. Float.max expected 1e-300 +. 1e-16 then
        Alcotest.failf "P(1, %g) = %.17g, expected %.17g" x got expected)
    [ 1e-6; 0.1; 0.5; 1.; 1.999; 2.; 3.; 10.; 30. ]

let test_gamma_p_poisson_sum () =
  (* For integer n, Q(n, x) = e^-x sum_{k<n} x^k / k!: the chance that a
     Poisson(x) count is below n. *)
  List.iter
    (fun x ->
      let term = ref (exp (-.x)) and q = ref 0. in
      for n = 1 to 60 do
        q := !q +. !term;
        term := !term *. x /. float_of_int n;
        let got = Special.gamma_p ~a:(float_of_int n) ~x in
        if Float.abs (got -. (1. -. !q)) > 1e-12 then
          Alcotest.failf "P(%d, %g) = %.17g, Poisson sum gives %.17g" n x got (1. -. !q)
      done)
    [ 0.5; 1.; 5.; 10.; 20.; 40. ]

let test_gamma_p_inv_exponential () =
  (* a = 1 is the exponential law: the quantile is -ln(1 - p). *)
  List.iter
    (fun p ->
      let expected = -.Float.log1p (-.p) in
      let got = Special.gamma_p_inv ~a:1. ~p in
      if Float.abs (got -. expected) > 1e-9 *. expected then
        Alcotest.failf "gamma_p_inv 1 %g = %.17g, expected %.17g" p got expected)
    [ 1e-12; 1e-6; 0.025; 0.5; 0.975; 0.999999 ];
  check_float "p = 0" 0. (Special.gamma_p_inv ~a:3. ~p:0.);
  Alcotest.(check int) "p = 0 costs nothing" 0
    (Special.gamma_p_inv_outcome ~a:3. ~p:0.).Roots.f_evals

let test_garwood_bounds () =
  (* The classic exact 95% Poisson bounds for k events:
     [gamma_p_inv k 0.025, gamma_p_inv (k + 1) 0.975]. *)
  List.iter
    (fun (k, lo, hi) ->
      let k = float_of_int k in
      check_close ~tol:5e-7 "lower" lo (Special.gamma_p_inv ~a:k ~p:0.025);
      check_close ~tol:5e-7 "upper" hi (Special.gamma_p_inv ~a:(k +. 1.) ~p:0.975))
    [ (1, 0.025318, 5.571643); (10, 4.795389, 18.390356); (100, 81.363991, 121.626794) ]

let test_gamma_p_inv_budget () =
  (* The service's quantiles, a = k at p = 0.025 and a = k + 1 at
     p = 0.975: at most a fifth of the plain bisection's 201
     evaluations on average. *)
  let evals = ref 0 and quantiles = ref 0 in
  for k = 1 to 3000 do
    let k = float_of_int k in
    List.iter
      (fun (a, p) ->
        incr quantiles;
        evals := !evals + (Special.gamma_p_inv_outcome ~a ~p).Roots.f_evals)
      [ (k, 0.025); (k +. 1., 0.975) ]
  done;
  let mean = float_of_int !evals /. float_of_int !quantiles in
  if mean > 0.2 *. 201. then
    Alcotest.failf "%.1f evaluations per quantile, budget %.1f" mean (0.2 *. 201.)

(* ---------------- Sparse ---------------- *)

let test_sparse_build_get () =
  let m = Sparse.of_triplets ~rows:3 ~cols:3 [ (0, 0, 2.); (0, 2, -1.); (2, 1, 5.) ] in
  Alcotest.(check int) "nnz" 3 (Sparse.nnz m);
  check_float "stored" 2. (Sparse.get m 0 0);
  check_float "stored 2" (-1.) (Sparse.get m 0 2);
  check_float "absent" 0. (Sparse.get m 1 1)

let test_sparse_duplicates_sum () =
  let m = Sparse.of_triplets ~rows:2 ~cols:2 [ (0, 0, 1.); (0, 0, 2.); (1, 1, 3.); (1, 1, -3.) ] in
  check_float "summed" 3. (Sparse.get m 0 0);
  Alcotest.(check int) "cancelled entry dropped" 1 (Sparse.nnz m)

let test_sparse_mul_vec () =
  let m = Sparse.of_triplets ~rows:2 ~cols:3 [ (0, 0, 1.); (0, 2, 2.); (1, 1, 3.) ] in
  let y = Sparse.mul_vec m [| 1.; 2.; 3. |] in
  check_float "y0" 7. y.(0);
  check_float "y1" 6. y.(1)

let test_sparse_transpose () =
  let m = Sparse.of_triplets ~rows:2 ~cols:3 [ (0, 2, 5.); (1, 0, 7.) ] in
  let t = Sparse.transpose m in
  Alcotest.(check int) "rows" 3 (Sparse.rows t);
  check_float "moved" 5. (Sparse.get t 2 0);
  check_float "moved 2" 7. (Sparse.get t 0 1)

let test_sparse_poisson () =
  let m = Sparse.poisson_2d ~n:4 in
  Alcotest.(check int) "size" 16 (Sparse.rows m);
  Alcotest.(check bool) "symmetric" true (Sparse.is_symmetric m);
  check_float "diagonal" 4. (Sparse.get m 5 5);
  check_float "coupling" (-1.) (Sparse.get m 5 6);
  (* Corner row has only 2 neighbours. *)
  let row_sum = ref 0. in
  Sparse.row_iter m 0 (fun _ v -> row_sum := !row_sum +. v);
  check_float "corner row sum" 2. !row_sum

let test_sparse_validation () =
  Alcotest.(check bool) "bad index rejected" true
    (try
       ignore (Sparse.of_triplets ~rows:2 ~cols:2 [ (2, 0, 1.) ]);
       false
     with Invalid_argument _ -> true)

(* ---------------- Cg ---------------- *)

let test_cg_solves_poisson () =
  let a = Sparse.poisson_2d ~n:10 in
  let n = Sparse.rows a in
  let x_true = Array.init n (fun i -> sin (float_of_int i)) in
  let b = Sparse.mul_vec a x_true in
  let s = Cg.solve ~tol:1e-10 ~a ~b () in
  Alcotest.(check bool) "converged" true (Cg.converged ~tol:1e-9 s);
  Array.iteri
    (fun i v -> check_close ~tol:1e-7 "solution component" x_true.(i) v)
    s.Cg.x

let test_cg_residual_decreases () =
  let a = Sparse.poisson_2d ~n:8 in
  let b = Array.make (Sparse.rows a) 1. in
  let s0 = Cg.init ~a ~b () in
  let s1 = Cg.step ~a s0 in
  let s5 = List.fold_left (fun s _ -> Cg.step ~a s) s1 [ 1; 2; 3; 4 ] in
  Alcotest.(check bool) "monotone-ish residual" true
    (Cg.residual_norm s5 < Cg.residual_norm s0)

let test_cg_serialize_roundtrip () =
  let a = Sparse.poisson_2d ~n:6 in
  let b = Array.init (Sparse.rows a) (fun i -> float_of_int (i mod 5)) in
  let s = List.fold_left (fun s _ -> Cg.step ~a s) (Cg.init ~a ~b ()) [ 1; 2; 3 ] in
  let s' = Cg.deserialize (Cg.serialize s) in
  Alcotest.(check bool) "bit-for-bit" true (Cg.equal s s')

let test_cg_resume_is_exact () =
  (* Continuing from a deserialized state matches the uninterrupted run
     exactly - the checkpointability property. *)
  let a = Sparse.poisson_2d ~n:6 in
  let b = Array.init (Sparse.rows a) (fun i -> 1. +. float_of_int (i mod 3)) in
  let run k = List.fold_left (fun s _ -> Cg.step ~a s) (Cg.init ~a ~b ()) (List.init k Fun.id) in
  let direct = run 10 in
  let resumed =
    let mid = Cg.deserialize (Cg.serialize (run 5)) in
    List.fold_left (fun s _ -> Cg.step ~a s) mid [ 1; 2; 3; 4; 5 ]
  in
  Alcotest.(check bool) "identical" true (Cg.equal direct resumed)

let test_cg_validation () =
  let a = Sparse.poisson_2d ~n:3 in
  Alcotest.(check bool) "rhs mismatch" true
    (try
       ignore (Cg.init ~a ~b:[| 1.; 2. |] ());
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "garbage payload" true
    (try
       ignore (Cg.deserialize (Bytes.of_string "nope"));
       false
     with Invalid_argument _ -> true)

(* P(a, x) and Q(a, x) with no term cap: the series below x = a + 1,
   the Lentz continued fraction above, each run to 1e-16 / 1e-15
   relative, tighter than the production 1e-14. *)
let uncapped_gamma_pq ~a ~x =
  let prefactor = exp ((a *. log x) -. x -. Special.log_gamma a) in
  if x < a +. 1. then begin
    let ap = ref a and sum = ref (1. /. a) and del = ref (1. /. a) in
    while Float.abs !del >= Float.abs !sum *. 1e-16 do
      ap := !ap +. 1.;
      del := !del *. x /. !ap;
      sum := !sum +. !del
    done;
    let p = !sum *. prefactor in
    (p, 1. -. p)
  end
  else begin
    let tiny = 1e-300 in
    let b = ref (x +. 1. -. a) and c = ref (1. /. tiny) in
    let d = ref (1. /. !b) in
    let h = ref !d and i = ref 0 and fin = ref false in
    while not !fin do
      incr i;
      let an = -.float_of_int !i *. (float_of_int !i -. a) in
      b := !b +. 2.;
      d := (an *. !d) +. !b;
      if Float.abs !d < tiny then d := tiny;
      c := !b +. (an /. !c);
      if Float.abs !c < tiny then c := tiny;
      d := 1. /. !d;
      let del = !d *. !c in
      h := !h *. del;
      fin := Float.abs (del -. 1.) < 1e-15
    done;
    let q = !h *. prefactor in
    (1. -. q, q)
  end

(* ---------------- property tests ---------------- *)

let qcheck_tests =
  let open QCheck in
  [ Test.make ~name:"rng int respects bound" ~count:500
      (pair small_int (int_range 1 1_000_000))
      (fun (seed, bound) ->
        let rng = Rng.of_int seed in
        let v = Rng.int rng bound in
        v >= 0 && v < bound);
    Test.make ~name:"exponential samples non-negative" ~count:500
      (pair small_int (float_range 1e-6 100.))
      (fun (seed, rate) ->
        let rng = Rng.of_int seed in
        Dist.exponential rng ~rate >= 0.);
    Test.make ~name:"percentile within min/max" ~count:300
      (pair (array_of_size (Gen.int_range 1 50) (float_range (-100.) 100.))
         (float_range 0. 1.))
      (fun (xs, p) ->
        let v = Stats.percentile xs p in
        v >= Stats.min xs -. 1e-9 && v <= Stats.max xs +. 1e-9);
    Test.make ~name:"matrix solve has small residual" ~count:100
      (array_of_size (Gen.return 9) (float_range (-10.) 10.))
      (fun entries ->
        let a =
          Matrix.of_arrays
            [| Array.sub entries 0 3; Array.sub entries 3 3; Array.sub entries 6 3 |]
        in
        let b = [| 1.; 2.; 3. |] in
        match Matrix.solve a b with
        | x ->
            let r = Matrix.mul_vec a x in
            Array.for_all2 (fun ri bi -> Float.abs (ri -. bi) < 1e-6) r b
        | exception Matrix.Singular -> true);
    Test.make ~name:"polyfit degree-1 reproduces line" ~count:200
      (pair (float_range (-5.) 5.) (float_range (-5.) 5.))
      (fun (a, b) ->
        let xs = Array.init 10 float_of_int in
        let ys = Array.map (fun x -> a +. (b *. x)) xs in
        let fit = Least_squares.polyfit ~degree:1 ~xs ~ys in
        Float.abs (fit.Least_squares.coefficients.(0) -. a) < 1e-6
        && Float.abs (fit.Least_squares.coefficients.(1) -. b) < 1e-6);
    Test.make ~name:"welford matches batch mean" ~count:200
      (array_of_size (Gen.int_range 2 100) (float_range (-1e3) 1e3))
      (fun xs ->
        let o = Stats.Online.create () in
        Array.iter (Stats.Online.add o) xs;
        Float.abs (Stats.Online.mean o -. Stats.mean xs) < 1e-6);
    Test.make ~name:"itp_integer replays bisect_integer bitwise" ~count:500
      (pair
         (quad (float_range 1. 1e6) (float_range 1. 1e6) (float_range 0.3 3.)
            (float_range (-1.) 1.))
         (option (pair (float_range (-3.) 6.) (float_range (-3.) 6.))))
      (fun ((a, b, p, skew), around) ->
        let lo = Float.min a b and hi = Float.max a b +. 1. in
        (* monotone curve with a root placed anywhere in the bracket
           (skew biases it toward an endpoint to hit shallow replays) *)
        let t = 0.5 +. (0.49 *. skew) in
        let root = lo +. (t *. (hi -. lo)) in
        let f x = ((x -. lo +. 1.) ** p) -. ((root -. lo +. 1.) ** p) in
        (* optionally a caller-held inner bracket around the root, its
           half-widths log-uniform from 1e-3 to 1e6 and clipped to
           [lo, hi] *)
        let inner =
          Option.bind around (fun (da, db) ->
              let a = Float.max lo (root -. (10. ** da))
              and b = Float.min hi (root +. (10. ** db)) in
              let fa = f a and fb = f b in
              if fa < 0. && fb > 0. then Some (a, fa, b, fb) else None)
        in
        let slow = Roots.bisect_integer ~f ~lo ~hi () in
        let fast = Roots.itp_integer ?inner ~f ~lo ~hi () in
        Int64.bits_of_float slow.Roots.root = Int64.bits_of_float fast.Roots.root
        && slow.Roots.iterations = fast.Roots.iterations
        (* headroom for ITP refining to 1/4 of a bisection cell (~2
           probes past bisection's depth), its minmax slack probes and
           the replay's interior probes; bisection's last midpoint
           evaluation, which the replay skips, pays for one of them.
           On a million such draws the gap never exceeded 0. *)
        && fast.Roots.f_evals <= slow.Roots.f_evals + 5);
    (* The replayed quantile against the plain 200-step bisection on the
       500-term P(a, x) it replaced, where those expansions converged:
       any a up to 4,000, the 2.5%/97.5% quantiles of integer a up to
       7,000, and the Garwood quantiles of k <= 3,000 at coverages out
       to 1 - 2^-52. *)
    Test.make ~name:"gamma_p_inv is bitwise the plain bisection" ~count:10_000
      (make
         ~print:(fun (a, p) -> Printf.sprintf "a = %.17g, p = %.17g" a p)
         Gen.(
           oneof
             [ pair (float_range 1. 4000.) (float_bound_exclusive 1.);
               pair
                 (map float_of_int (int_range 1 7000))
                 (oneofl [ 0.025; 0.975 ]);
               map2
                 (fun k (coverage, upper) ->
                   let alpha = 1. -. coverage in
                   if upper then (float_of_int k +. 1., 1. -. (alpha /. 2.))
                   else (float_of_int k, alpha /. 2.))
                 (int_range 1 3000)
                 (pair
                    (oneofl [ 0.5; 0.9; 0.99; 0.999999; 1. -. 1e-12; 1. -. epsilon_float ])
                    bool) ]))
      (fun (a, p) ->
        Oracle.same_bits (Special.gamma_p_inv ~a ~p) (Oracle.Gamma_bisection.gamma_p_inv ~a ~p));
    (* The same below a = 1, with p down to 1e-300: there the root can
       lie below every midpoint the bisection reaches. *)
    Test.make ~name:"gamma_p_inv is bitwise the plain bisection below a = 1" ~count:2_000
      (make
         ~print:(fun (a, p) -> Printf.sprintf "a = %.17g, p = %.17g" a p)
         Gen.(pair (float_range 1e-3 1.) (map (fun e -> 10. ** -.e) (float_range 1e-6 300.))))
      (fun (a, p) ->
        Oracle.same_bits (Special.gamma_p_inv ~a ~p) (Oracle.Gamma_bisection.gamma_p_inv ~a ~p));
    (* Past a ~ 1e4 a 500-term cap stops the series short near the
       quantile (the 2.5% quantile's true P was 0.0252 at a = 1e5): the
       quantile must satisfy P(a, q) = p against an uncapped evaluation
       of both expansions, compared on the side where the tail is small. *)
    Test.make ~name:"gamma_p_inv is accurate for a in [1e4, 1e7]" ~count:200
      (make
         ~print:(fun (a, p) -> Printf.sprintf "a = %.17g, p = %.17g" a p)
         Gen.(
           pair
             (map (fun e -> 10. ** e) (float_range 4. 7.))
             (oneof [ oneofl [ 0.025; 0.975 ]; float_range 1e-6 (1. -. 1e-6) ])))
      (fun (a, p) ->
        let q = Special.gamma_p_inv ~a ~p in
        let lower, upper = uncapped_gamma_pq ~a ~x:q in
        if p <= 0.5 then Float.abs (lower -. p) <= 1e-6 *. p
        else Float.abs (upper -. (1. -. p)) <= 1e-6 *. (1. -. p));
    Test.make ~name:"rng stream families are pairwise disjoint" ~count:25
      (pair small_int (int_range 2 8))
      (fun (seed, n_streams) ->
        let streams = Rng.streams ~n:n_streams (Rng.of_int seed) in
        let windows = Array.map (fun rng -> sorted_window rng 2_048) streams in
        let ok = ref true in
        Array.iteri
          (fun i wi ->
            Array.iteri
              (fun j wj -> if i < j && common_count wi wj > 0 then ok := false)
              windows)
          windows;
        !ok);
    Test.make ~name:"rng streams are schedule-independent" ~count:50
      (pair small_int (int_range 1 8))
      (fun (seed, n_streams) ->
        (* The family is fixed by (seed, n): consuming stream i first,
           last, or not at all never changes what stream i yields. *)
        let a = Rng.streams ~n:n_streams (Rng.of_int seed) in
        let b = Rng.streams ~n:n_streams (Rng.of_int seed) in
        let draws rng = Array.init 64 (fun _ -> Rng.int64 rng) in
        let forward = Array.map draws a in
        let backward =
          let out = Array.make n_streams [||] in
          for i = n_streams - 1 downto 0 do
            out.(i) <- draws b.(i)
          done;
          out
        in
        forward = backward) ]

let () =
  Alcotest.run "ckpt_numerics"
    [ ( "rng",
        [ Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "float range" `Quick test_rng_float_range;
          Alcotest.test_case "float mean" `Quick test_rng_float_mean;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "int uniform" `Quick test_rng_int_uniform;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
          Alcotest.test_case "copy" `Quick test_rng_copy;
          Alcotest.test_case "jump" `Quick test_rng_jump;
          Alcotest.test_case "bool fair" `Quick test_rng_bool;
          Alcotest.test_case "substreams do not overlap (1e6 window)" `Quick
            test_rng_substreams_do_not_overlap ] );
      ( "dist",
        [ Alcotest.test_case "exponential mean" `Quick test_exponential_mean;
          Alcotest.test_case "exponential positive" `Quick test_exponential_positive;
          Alcotest.test_case "exponential cdf/pdf" `Quick test_exponential_cdf_pdf;
          Alcotest.test_case "weibull shape 1" `Quick test_weibull_shape1_is_exponential;
          Alcotest.test_case "normal moments" `Quick test_normal_moments;
          Alcotest.test_case "lognormal positive" `Quick test_lognormal_positive;
          Alcotest.test_case "poisson mean" `Quick test_poisson_mean;
          Alcotest.test_case "poisson large mean" `Quick test_poisson_large_mean;
          Alcotest.test_case "poisson zero" `Quick test_poisson_zero;
          Alcotest.test_case "poisson pmf sums" `Quick test_poisson_pmf_sums;
          Alcotest.test_case "jitter bounds" `Quick test_jitter_bounds;
          Alcotest.test_case "jitter mean" `Quick test_jitter_mean_preserved ] );
      ( "stats",
        [ Alcotest.test_case "known values" `Quick test_stats_known;
          Alcotest.test_case "percentile" `Quick test_stats_percentile;
          Alcotest.test_case "singleton" `Quick test_stats_single;
          Alcotest.test_case "online vs batch" `Quick test_stats_online_matches_batch;
          Alcotest.test_case "confidence degenerate" `Quick test_stats_confidence;
          Alcotest.test_case "relative error" `Quick test_relative_error ] );
      ( "histogram",
        [ Alcotest.test_case "basic counts" `Quick test_histogram_basic;
          Alcotest.test_case "bounds and density" `Quick test_histogram_bounds_density ] );
      ( "roots",
        [ Alcotest.test_case "bisect sqrt2" `Quick test_bisect_sqrt2;
          Alcotest.test_case "bisect no bracket" `Quick test_bisect_no_bracket;
          Alcotest.test_case "integer bisection" `Quick test_bisect_integer_stops_early;
          Alcotest.test_case "itp bitwise replay" `Quick test_itp_integer_matches_bisect;
          Alcotest.test_case "itp eval budget" `Quick test_itp_integer_fewer_evals;
          Alcotest.test_case "itp endpoint roots" `Quick test_itp_integer_endpoint_roots;
          Alcotest.test_case "itp inner bracket rejected" `Quick
            test_itp_integer_inner_rejected;
          Alcotest.test_case "golden section" `Quick test_golden_minimum ] );
      ( "fixed-point",
        [ Alcotest.test_case "max abs diff" `Quick test_max_abs_diff ] );
      ( "matrix",
        [ Alcotest.test_case "solve known" `Quick test_matrix_solve_known;
          Alcotest.test_case "singular raises" `Quick test_matrix_singular;
          Alcotest.test_case "inverse" `Quick test_matrix_inverse;
          Alcotest.test_case "determinant" `Quick test_matrix_determinant;
          Alcotest.test_case "transpose/mul" `Quick test_matrix_transpose_mul;
          Alcotest.test_case "qr" `Quick test_matrix_qr;
          Alcotest.test_case "least squares exact" `Quick test_least_squares_exact;
          Alcotest.test_case "mul_vec" `Quick test_mul_vec ] );
      ( "least-squares",
        [ Alcotest.test_case "polyfit recovers" `Quick test_polyfit_recovers;
          Alcotest.test_case "through origin" `Quick test_polyfit_through_origin;
          Alcotest.test_case "affine in H" `Quick test_fit_affine_in;
          Alcotest.test_case "eval poly" `Quick test_eval_poly;
          Alcotest.test_case "partial r2" `Quick test_fit_r_squared_partial ] );
      ( "derivative",
        [ Alcotest.test_case "central" `Quick test_derivative_central;
          Alcotest.test_case "richardson" `Quick test_derivative_richardson;
          Alcotest.test_case "second" `Quick test_derivative_second ] );
      ( "sparse",
        [ Alcotest.test_case "build/get" `Quick test_sparse_build_get;
          Alcotest.test_case "duplicates sum" `Quick test_sparse_duplicates_sum;
          Alcotest.test_case "mul_vec" `Quick test_sparse_mul_vec;
          Alcotest.test_case "transpose" `Quick test_sparse_transpose;
          Alcotest.test_case "poisson stencil" `Quick test_sparse_poisson;
          Alcotest.test_case "validation" `Quick test_sparse_validation ] );
      ( "cg",
        [ Alcotest.test_case "solves poisson" `Quick test_cg_solves_poisson;
          Alcotest.test_case "residual decreases" `Quick test_cg_residual_decreases;
          Alcotest.test_case "serialize roundtrip" `Quick test_cg_serialize_roundtrip;
          Alcotest.test_case "resume exact" `Quick test_cg_resume_is_exact;
          Alcotest.test_case "validation" `Quick test_cg_validation ] );
      ( "special",
        [ Alcotest.test_case "gamma known values" `Quick test_gamma_known_values;
          Alcotest.test_case "gamma recurrence" `Quick test_gamma_recurrence;
          Alcotest.test_case "log gamma large" `Quick test_log_gamma_large;
          Alcotest.test_case "factorial" `Quick test_factorial;
          Alcotest.test_case "P(1, x) is 1 - e^-x" `Quick test_gamma_p_exponential;
          Alcotest.test_case "P(n, x) is a Poisson tail" `Quick test_gamma_p_poisson_sum;
          Alcotest.test_case "exponential quantile" `Quick test_gamma_p_inv_exponential;
          Alcotest.test_case "Garwood 95% bounds" `Quick test_garwood_bounds;
          Alcotest.test_case "quantile evaluation budget" `Quick test_gamma_p_inv_budget ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_tests) ]
