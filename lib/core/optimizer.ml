module Failure_spec = Ckpt_failures.Failure_spec

type problem = {
  te : float;
  speedup : Speedup.t;
  levels : Level.t array;
  alloc : float;
  spec : Failure_spec.t;
}

type plan = {
  xs : float array;
  n : float;
  wall_clock : float;
  mus : float array;
  breakdown : Multilevel.breakdown;
  efficiency : float;
  outer_iterations : int;
  inner_iterations : int;
  f_evals : int;
  fallbacks : int;
  converged : bool;
}

(* Non-finite inputs must be rejected at the boundary: a single NaN in a
   rate or overhead coefficient survives every range check below (NaN
   comparisons are false) and only surfaces deep in the fixed point as a
   NaN plan. *)
let check_finite what v =
  if not (Float.is_finite v) then
    invalid_arg (Printf.sprintf "Optimizer: non-finite %s" what)

let check_problem p =
  if Array.length p.levels = 0 then invalid_arg "Optimizer: no levels";
  if Failure_spec.levels p.spec <> Array.length p.levels then
    invalid_arg "Optimizer: failure spec level count differs from hierarchy";
  check_finite "productive time" p.te;
  if p.te <= 0. then invalid_arg "Optimizer: non-positive productive time";
  check_finite "allocation period" p.alloc;
  if p.alloc < 0. then invalid_arg "Optimizer: negative allocation period";
  check_finite "baseline scale" p.spec.Failure_spec.baseline_scale;
  if p.spec.Failure_spec.baseline_scale <= 0. then
    invalid_arg "Optimizer: non-positive baseline scale";
  Array.iteri
    (fun i r ->
      if not (Float.is_finite r) || r < 0. then
        invalid_arg
          (Printf.sprintf
             "Optimizer: level %d failure rate must be finite and >= 0" (i + 1)))
    p.spec.Failure_spec.rates_per_day;
  Array.iteri
    (fun i (l : Level.t) ->
      let check_law which (o : Overhead.t) =
        if
          not (Float.is_finite o.Overhead.eps)
          || o.Overhead.eps < 0.
          || not (Float.is_finite o.Overhead.alpha)
        then
          invalid_arg
            (Printf.sprintf
               "Optimizer: level %d %s law has non-finite or negative \
                coefficients"
               (i + 1) which)
      in
      check_law "checkpoint" l.Level.ckpt;
      check_law "restart" l.Level.restart)
    p.levels;
  (match Speedup.eval p.speedup 1. with
  | g when Float.is_finite g && g > 0. -> ()
  | _ -> invalid_arg "Optimizer: speedup not finite-positive at N = 1"
  | exception _ -> invalid_arg "Optimizer: speedup not finite-positive at N = 1");
  match Speedup.search_upper_bound p.speedup ~default:1e9 with
  | n when Float.is_finite n && n >= 1. -> ()
  | _ -> invalid_arg "Optimizer: speedup ideal scale must be finite and >= 1"
  | exception _ ->
      invalid_arg "Optimizer: speedup ideal scale must be finite and >= 1"

(* mu_i(N) = lambda_i(N) * wall_clock_estimate; lambda is linear in N, so
   mu_i is linear with slope lambda'_i * estimate. *)
let mus_for p ~estimate =
  Array.init (Array.length p.levels) (fun idx ->
      let slope = Failure_spec.rate_per_second' p.spec ~level:(idx + 1) in
      Scale_fn.linear ~slope:(slope *. estimate) ())

let multilevel_params p ~estimate =
  { Multilevel.te = p.te;
    speedup = p.speedup;
    levels = p.levels;
    alloc = p.alloc;
    mus = mus_for p ~estimate }

let mu_values p ~estimate ~n =
  Array.init (Array.length p.levels) (fun idx ->
      Failure_spec.rate_per_second p.spec ~level:(idx + 1) ~scale:n *. estimate)

let finish p ~(sol : Multilevel.solution) ~estimate ~outer ~inner ~f_evals
    ~converged =
  let params = multilevel_params p ~estimate in
  let breakdown = Multilevel.breakdown params ~xs:sol.Multilevel.xs ~n:sol.Multilevel.n in
  { xs = sol.Multilevel.xs;
    n = sol.Multilevel.n;
    wall_clock = sol.Multilevel.wall_clock;
    mus = mu_values p ~estimate ~n:sol.Multilevel.n;
    breakdown;
    efficiency = p.te /. sol.Multilevel.wall_clock /. sol.Multilevel.n;
    outer_iterations = outer;
    inner_iterations = inner;
    f_evals;
    fallbacks = 0;
    converged }

(* The plan reported when the failure burden exceeds what any checkpoint
   schedule can absorb (paper Section III-D discusses this divergence for
   "extremely high" failure rates): the expected wall clock is unbounded. *)
let divergent_plan p ~n ~outer ~inner ~f_evals =
  { xs = Array.make (Array.length p.levels) 1.;
    n;
    wall_clock = infinity;
    mus = Array.make (Array.length p.levels) infinity;
    breakdown =
      { Multilevel.productive = Speedup.productive_time p.speedup ~te:p.te ~n;
        checkpoint = 0.; restart = infinity; allocation = 0.; rollback = infinity };
    efficiency = 0.;
    outer_iterations = outer;
    inner_iterations = inner;
    f_evals;
    fallbacks = 0;
    converged = false }

(* A warm plan is usable only if it describes the same hierarchy and
   carries a finite wall clock to seed the mu estimate with. *)
let usable_warm p = function
  | Some w
    when Array.length w.xs = Array.length p.levels
         && Float.is_finite w.wall_clock && w.wall_clock > 0. ->
      Some w
  | _ -> None

let solve_reference ?(delta = 1e-9) ?(max_outer = 1_000) ?fixed_n ?(n_max = 1e9)
    ?warm p =
  check_problem p;
  let n0 =
    match fixed_n with
    | Some n -> n
    | None -> Speedup.search_upper_bound p.speedup ~default:n_max
  in
  let warm = usable_warm p warm in
  (* Line 2 of Algorithm 1: initialize the failure counts from the
     failure-free productive time — or, warm-started, from the
     neighbouring plan's converged wall clock, which is already close to
     this problem's fixed point.  Seeding the drift reference with the
     warm plan's mus lets a solve that starts at its own fixed point stop
     after one outer round. *)
  let estimate0 =
    match warm with
    | Some w -> w.wall_clock
    | None -> Speedup.productive_time p.speedup ~te:p.te ~n:n0
  in
  let init0 = Option.map (fun w -> (w.xs, w.n)) warm in
  let prev_mus0 =
    Option.map (fun w -> Array.map (fun m -> if Float.is_finite m then m else 0.) w.mus) warm
  in
  let rec outer_loop estimate prev_mus init outer inner f_evals =
    if not (Float.is_finite estimate) then
      divergent_plan p ~n:n0 ~outer ~inner ~f_evals
    else begin
      let params = multilevel_params p ~estimate in
      let sol = Multilevel.optimize_reference ?fixed_n ~n_max ?init params in
      let inner = inner + sol.Multilevel.iterations in
      let f_evals = f_evals + sol.Multilevel.f_evals in
      let estimate' = sol.Multilevel.wall_clock in
      if not (Float.is_finite estimate') then
        divergent_plan p ~n:sol.Multilevel.n ~outer:(outer + 1) ~inner ~f_evals
      else begin
        let mus' = mu_values p ~estimate:estimate' ~n:sol.Multilevel.n in
        let drift =
          match prev_mus with
          | Some prev when Array.length prev = Array.length mus' ->
              Ckpt_numerics.Fixed_point.max_abs_diff prev mus'
          | _ -> infinity
        in
        if drift <= delta || outer + 1 >= max_outer then
          finish p ~sol ~estimate:estimate' ~outer:(outer + 1) ~inner ~f_evals
            ~converged:(drift <= delta && sol.Multilevel.converged)
        else
          (* Rounds after the first run cold (init = None) on the plain
             fixed-point orbit: each round's inner solution is a function
             of the estimate alone, so the mu drift cannot be pinned above
             delta by a tol-sized dependence on the previous round's
             starting point. *)
          outer_loop estimate' (Some mus') None (outer + 1) inner f_evals
      end
    end
  in
  outer_loop estimate0 prev_mus0 init0 0 0 0

(* ------------------------------------------------------------------ *)
(* The production solver: Algorithm 1 on rows of the struct-of-arrays
   fastpath [Batch].  [solve] is a one-row batch, [solve_batch] K rows;
   both run the same loops below on one [Batch.t] per domain, so pool
   workers fan segments out without sharing scratch.

   Every evaluation kernel and fill is bit-identical to its closure-
   evaluated [Multilevel] reference; the iteration itself is accelerated
   — ITP for the Eq. 24 scale search on one bisection lattice, seeded
   from the previous inner iterate, Newton steps on the outer estimate
   with the derivative read off each round's plan, warm-seeded and
   inexact early rounds confirmed by a cold one, plus cross-row warm
   starts in a batch — so each plan is plan-equivalent to
   [solve_reference] of the same job (same integer scale, E(T_w) within
   1e-9 relative), which test/test_fastpath.ml property-tests. *)

module Batch = Ckpt_fastpath.Batch

type batch_job = {
  problem : problem;
  fixed_n : float option;
  delta : float;
  inject : Ckpt_chaos.Chaos.fault option;
}

let batch_job ?(delta = 1e-9) ?fixed_n ?inject problem =
  { problem; fixed_n; delta; inject }

(* Not re-entrant within a domain: nothing in this library solves from
   inside a solve, and domains never share an instance. *)
let batch_ws_key = Domain.DLS.new_key (fun () -> Batch.create ())

(* Speedup terms by form, replicating each constructor's closure
   arithmetic exactly; laws without a special form (including Custom)
   evaluate through the shape-dispatched [Scale_fn.eval]. *)
let fill_speedup sp n s =
  match sp.Speedup.form with
  | Speedup.Quadratic { kappa; n_star } ->
      let a = -.kappa /. (2. *. n_star) in
      s.(Batch.slot_g) <- (a *. n *. n) +. (kappa *. n);
      s.(Batch.slot_gd) <- (2. *. a *. n) +. kappa
  | Speedup.Amdahl { serial_fraction = sf; _ } ->
      let denom = sf +. ((1. -. sf) /. n) in
      s.(Batch.slot_g) <- 1. /. denom;
      s.(Batch.slot_gd) <- (1. -. sf) /. (n *. n *. denom *. denom)
  | Speedup.Linear _ | Speedup.Gustafson _ | Speedup.Custom _ ->
      s.(Batch.slot_g) <- Scale_fn.eval sp.Speedup.law n;
      s.(Batch.slot_gd) <- Scale_fn.eval' sp.Speedup.law n

(* The row's model terms at scale [n], each the value its [Multilevel]
   closure returns: overhead-law terms guarded by the row's [cost_key]
   (functions of the scale alone, they survive the outer mu
   re-estimation rounds), mu terms and the shared speedup slots by the
   full [key].  [mi] replicates [Scale_fn.eval] of the Affine law
   [mus_for] builds: [0. +. (slope*estimate) *. n]. *)
let batch_fill b (p : problem) ~row n =
  if b.Batch.key.(row) <> n then begin
    fill_speedup p.speedup n b.Batch.s;
    let off = row * b.Batch.stride in
    let nl = b.Batch.nlev.(row) in
    if b.Batch.cost_key.(row) <> n then begin
      for i = 0 to nl - 1 do
        let lvl = p.levels.(i) in
        b.Batch.ci.(off + i) <- Overhead.cost lvl.Level.ckpt n;
        b.Batch.ci_d.(off + i) <- Overhead.cost' lvl.Level.ckpt n;
        b.Batch.ri.(off + i) <- Overhead.cost lvl.Level.restart n;
        b.Batch.ri_d.(off + i) <- Overhead.cost' lvl.Level.restart n
      done;
      b.Batch.cost_key.(row) <- n
    end;
    for i = 0 to nl - 1 do
      let se = b.Batch.slope.(off + i) in
      b.Batch.mi.(off + i) <- 0. +. (se *. n);
      b.Batch.mi_d.(off + i) <- se
    done;
    b.Batch.key.(row) <- n
  end

(* The Eq. 24 scale search of [Multilevel.solve_scale] with [d_dn]
   reading the row's cached terms, through [Roots.itp_integer]:
   superlinear ITP probes refine the bracket, then the exact bisection
   recurrence is replayed over it, so the returned scale is bitwise the
   one plain bisection finds (at the same xs) in a fraction of the
   Eq. 24 evaluations.

   The search is seeded from the scale iterate N in [slot_n]: the
   previous inner iterate, or on a round's first search the scale the
   round resumes from.  N mostly moves by less than 0.5, so f is probed
   at N - 0.5 and N + 0.5 first.  When the two straddle the root they go
   to [itp_integer] as its [inner] bracket; when they do not, their
   signs say on which side the root lies, and steps doubling outward
   from N/256 find a bracket there.  Either way the f(n_hi) and f(1)
   endpoint probes are skipped (or paid only where the stepping reaches
   an end) while the replay always runs over [1, n_hi]: one bisection
   lattice, so the root's bits depend on xs alone and never on the
   seed, as long as f changes sign once on [1, n_hi] — the contract
   [itp_integer] already relies on.  A converged row re-solved from its
   own plan therefore lands on the same scale bits.  A seed that does
   not fit inside [1, n_hi], as on a cold round's first search from
   n_hi, or that hits an exact zero, falls back to the endpoint probes.

   Leaves the row filled at the last scale probed, which need not be
   the returned one: [batch_opt_loop] and [batch_opt_finish] refill it
   at the scale they use through the [key] guard. *)
let batch_solve_scale b p ~row ~n_hi () =
  let s = b.Batch.s in
  let n = s.(Batch.slot_n) in
  let f n =
    s.(Batch.slot_fevals) <- s.(Batch.slot_fevals) +. 1.;
    batch_fill b p ~row n;
    Batch.d_dn b ~row ~te:p.te ~alloc:p.alloc
  in
  let itp ?flo ?fhi ?inner () =
    (Ckpt_numerics.Roots.itp_integer ?flo ?fhi ?inner ~f ~lo:1. ~hi:n_hi ())
      .Ckpt_numerics.Roots.root
  in
  let unseeded () =
    let f_hi = f n_hi in
    if f_hi <= 0. then n_hi
    else begin
      let f_1 = f 1. in
      if f_1 >= 0. then 1. else itp ~flo:f_1 ~fhi:f_hi ()
    end
  in
  (* The root lies above [x], where f is negative: step up until f
     turns positive. *)
  let rec up x fx step =
    let y = x +. step in
    if y >= n_hi then begin
      let f_hi = f n_hi in
      if f_hi <= 0. then n_hi else itp ~inner:(x, fx, n_hi, f_hi) ()
    end
    else begin
      let fy = f y in
      if fy > 0. then itp ~inner:(x, fx, y, fy) ()
      else if fy < 0. then up y fy (2. *. step)
      else unseeded ()
    end
  in
  (* The root lies below [x], where f is positive: step down until f
     turns negative. *)
  let rec down x fx step =
    let y = x -. step in
    if y <= 1. then begin
      let f_1 = f 1. in
      if f_1 >= 0. then 1. else itp ~inner:(1., f_1, x, fx) ()
    end
    else begin
      let fy = f y in
      if fy < 0. then itp ~inner:(y, fy, x, fx) ()
      else if fy > 0. then down y fy (2. *. step)
      else unseeded ()
    end
  in
  if n -. 0.5 < 1. || n +. 0.5 > n_hi then unseeded ()
  else begin
    let step = Float.max 1. (n /. 256.) in
    let below = n -. 0.5 and above = n +. 0.5 in
    let f_below = f below in
    if f_below < 0. then begin
      let f_above = f above in
      if f_above > 0. then itp ~inner:(below, f_below, above, f_above) ()
      else if f_above < 0. then up above f_above step
      else unseeded ()
    end
    else if f_below > 0. then down below f_below step
    else unseeded ()
  end

(* The inner optimizer on one row: [Multilevel.optimize_reference]'s
   iteration (at most 10,000 iterations), stopping once the xs step is
   at most the round's tolerance in [slot_tol] and the scale moved by at
   most 0.5.  The solved scale lands in [slot_n] and its E(T_w) in
   [slot_wall]; returns the iteration count, with the converged flag as
   the sign bit (a tuple or closure here would allocate once per outer
   round).  The loop and its finisher are top-level functions, and the
   scale iterate and tolerance ride in scalar slots, because local
   closures and float loop arguments allocate per call under the
   non-flambda compiler. *)
let batch_opt_finish b p ~row n iter converged =
  batch_fill b p ~row n;
  b.Batch.s.(Batch.slot_n) <- n;
  b.Batch.s.(Batch.slot_wall) <-
    Batch.expected_wall_clock b ~row ~te:p.te ~alloc:p.alloc;
  if converged then iter else -iter

(* Plain Gauss–Seidel steps: sweep Eq. 23 over the levels at the
   current scale, then solve Eq. 24 for the next one.  Each free-scale
   search starts from the scale the sweep just ran at ([slot_n]) and
   probes its ±0.5 neighbourhood first ([batch_solve_scale]).  The seed
   changes which probes are evaluated, never the root. *)
let rec batch_opt_loop b p ~row fixed_n ~n_hi iter =
  let s = b.Batch.s in
  let n = s.(Batch.slot_n) in
  if iter >= 10_000 then batch_opt_finish b p ~row n iter false
  else begin
    Batch.rotate_xs b ~row;
    if b.Batch.key.(row) <> n then batch_fill b p ~row n;
    Batch.x_sweep b ~row ~te:p.te;
    let n' =
      match fixed_n with
      | Some n -> n
      | None -> batch_solve_scale b p ~row ~n_hi ()
    in
    let dx = Batch.max_abs_diff_xs b ~row in
    if dx <= s.(Batch.slot_tol) && Float.abs (n' -. n) <= 0.5 then
      batch_opt_finish b p ~row n' (iter + 1) true
    else begin
      s.(Batch.slot_n) <- n';
      batch_opt_loop b p ~row fixed_n ~n_hi (iter + 1)
    end
  end

(* Each outer round re-fills the mu terms at the new estimate (the [key]
   invalidation at entry), while [cost_key] keeps the scale-only terms
   across rounds.  [warm] skips the Young restart: the xs stripe and
   [slot_n] already hold a neighbouring solution (the previous outer
   round's, or a seeded plan), so the iteration resumes from it and the
   round's first scale search is seeded with its scale.  A cold round
   starts at n_hi with Young's intervals. *)
let batch_optimize b p ~row ~warm fixed_n ~n_hi =
  b.Batch.key.(row) <- nan;
  let s = b.Batch.s in
  let n0 =
    match fixed_n with
    | Some n -> n
    | None -> if warm then Float.min n_hi s.(Batch.slot_n) else n_hi
  in
  batch_fill b p ~row n0;
  if not warm then Batch.young_init b ~row ~te:p.te;
  s.(Batch.slot_n) <- n0;
  batch_opt_loop b p ~row fixed_n ~n_hi 0

(* Algorithm 1's outer loop on one row, allocation-free until the final
   plan record: re-estimate mu_i = lambda_i(N) * E(T_w) from each round's
   solution until the mu drift falls under [delta].  The wall-clock
   estimate rides in [slot_est] and the round's inner tolerance in
   [slot_tol]; the f_evals counter accumulates in its slot across rounds
   (reset once in [solve_batch_row]); [prev_valid] says whether the
   [prev_mu] stripe holds a drift reference.

   Newton steps on the estimate: a round maps e to G(e), the optimal
   E(T_w) when the mu slopes are lambda'_i * e.  At fixed (xs, N),
   Eq. 21 is affine in e through its mu terms, so by the envelope
   theorem G'(e) = F/e, with F the failure part of the round's plan
   (restart + allocation + rollback): E(T_w) - T_e/g - sum C_i (x_i - 1),
   read off the row filled at the solved scale.  The next estimate is
   e + r/(1 - G') on the residual r = G(e) - e, at no evaluation beyond
   the round itself.

   Inexact rounds: while the residual is large the next round's fixed
   point is solved only as tightly as it warrants, to an xs step of
   max(1e-6, 0.1 |r|/e) (0.1 on a row's first round); the sticky [cold]
   rounds below always solve to 1e-6.

   [warm] seeds each round from the previous round's solution while the
   mu drift keeps beating its best ([best_drift]); after two
   non-improving rounds ([stall]) the solve finishes on sticky [cold]
   rounds, the reference's discipline.  A free-scale row whose warm
   round meets the drift test finishes on cold rounds too, until a cold
   round meets it: a cold round is a function of the estimate alone, so
   the returned scale cannot depend on the seeding path (the warm
   endgame's tol-sized xs noise can tip an optimum that sits near a
   bisection-cell boundary into the neighbouring cell).  A row with a
   [fixed_n] has no scale lattice and finishes on its warm round. *)
let rec batch_outer b ~row ~delta ~max_outer ~n_hi (p : problem) fixed_n
    prev_valid warm best_drift stall cold outer inner =
  let off = row * b.Batch.stride in
  let nl = Array.length p.levels in
  let s = b.Batch.s in
  let estimate = s.(Batch.slot_est) in
  if not (Float.is_finite estimate) then
    let n0 = match fixed_n with Some n -> n | None -> n_hi in
    divergent_plan p ~n:n0 ~outer ~inner
      ~f_evals:(int_of_float s.(Batch.slot_fevals))
  else begin
    for i = 0 to nl - 1 do
      b.Batch.slope.(off + i) <-
        Failure_spec.rate_per_second' p.spec ~level:(i + 1) *. estimate
    done;
    let signed_iters = batch_optimize b p ~row ~warm fixed_n ~n_hi in
    let iters = abs signed_iters in
    let inner_converged = signed_iters >= 0 in
    let inner = inner + iters in
    let n_sol = s.(Batch.slot_n) in
    let estimate' = s.(Batch.slot_wall) in
    if not (Float.is_finite estimate') then
      divergent_plan p ~n:n_sol ~outer:(outer + 1) ~inner
        ~f_evals:(int_of_float s.(Batch.slot_fevals))
    else begin
      for i = 0 to nl - 1 do
        b.Batch.mu.(off + i) <-
          Failure_spec.rate_per_second p.spec ~level:(i + 1) ~scale:n_sol
          *. estimate'
      done;
      let drift = if prev_valid then Batch.mu_drift b ~row else infinity in
      let confirm = warm && Option.is_none fixed_n in
      if (drift <= delta && not confirm) || outer + 1 >= max_outer then begin
        let sol =
          { Multilevel.xs = Batch.xs_copy b ~row;
            n = n_sol;
            wall_clock = estimate';
            iterations = iters;
            f_evals = int_of_float s.(Batch.slot_fevals);
            converged = inner_converged }
        in
        let converged = if drift <= delta then inner_converged else false in
        finish p ~sol ~estimate:estimate' ~outer:(outer + 1) ~inner
          ~f_evals:sol.Multilevel.f_evals ~converged
      end
      else begin
        (* The Newton step is gated a priori — G' < 1, and the step
           finite, positive and within three plain steps of G(e) — and
           degrades to the plain step G(e) otherwise, so nothing is ever
           evaluated twice or reverted; on a divergent problem the
           estimate escapes to infinity on plain steps exactly like the
           reference. *)
        let r = estimate' -. estimate in
        s.(Batch.slot_acc) <- estimate' -. (p.te /. s.(Batch.slot_g));
        for i = off to off + nl - 1 do
          s.(Batch.slot_acc) <-
            s.(Batch.slot_acc) -. (b.Batch.ci.(i) *. (b.Batch.xs.(i) -. 1.))
        done;
        let g' = s.(Batch.slot_acc) /. estimate in
        let newton = estimate +. (r /. (1. -. g')) in
        s.(Batch.slot_est) <-
          (if
             g' < 1. && Float.is_finite newton && newton > 0.
             && Float.abs (newton -. estimate') <= 3. *. Float.abs r
           then newton
           else estimate');
        Batch.commit_mus b ~row;
        (* An infinite best just means there is no previous round to
           compare against (mu values are finite whenever the estimate
           is), so it cannot be stagnation. *)
        let improving = (not (Float.is_finite best_drift)) || drift < best_drift in
        let next_cold = cold || drift <= delta || ((not improving) && stall > 0) in
        s.(Batch.slot_tol) <-
          (if next_cold then 1e-6
           else Float.max 1e-6 (0.1 *. Float.abs r /. estimate));
        if next_cold then
          (* Sticky cold rounds: the confirmation of a warm fixed point,
             or the warm-seeding noise floor after two stalls — the
             seeded inner solves stop inside a tol-sized ball whose
             position depends on the seeding path, so the measured drift
             can fall no further.  Cold rounds are a deterministic
             function of the estimate, so their drift keeps contracting
             to delta; the Newton steps keep running. *)
          batch_outer b ~row ~delta ~max_outer ~n_hi p fixed_n true false
            infinity 0 true (outer + 1) inner
        else if improving then
          (* Near the fixed point E(T_w) is flat in xs (first-order
             conditions), so resuming from this round's solution —
             already in the xs stripe and [slot_n] — perturbs the next
             round only to second order in the inner tolerance, far below
             delta, while its inner solve converges in a handful of
             iterations.  The drift must keep beating its best for this
             to stay sound, which is checked, not assumed. *)
          batch_outer b ~row ~delta ~max_outer ~n_hi p fixed_n true true drift
            0 false (outer + 1) inner
        else
          (* One non-improving round is a normal transient of a
             contraction measured through a tol-bounded inner solve:
             stay warm, remember the stall. *)
          batch_outer b ~row ~delta ~max_outer ~n_hi p fixed_n true true
            best_drift 1 false (outer + 1) inner
      end
    end
  end

(* Solve one row.  [warm] seeds it from a neighbouring plan: its xs land
   in the stripe, its scale in [slot_n], its wall clock becomes the
   round-0 mu estimate, and its mus pre-load the drift reference.  The
   seed is checked here, since [solve] passes callers' plans through: a
   plan of another arity or without a finite-positive wall clock is
   ignored, a non-finite or <= 1 interval starts at 1, a non-finite or
   < 1 scale starts at the cold scale, and mus of another arity leave
   the drift reference empty.

   A faulted job ([inject]; [solve_batch] passes it no seed) exercises
   the real failure paths rather than fabricating an outcome: [Diverge]
   starves the outer fixed point of rounds ([max_outer] 1), [Non_finite]
   starts it from a NaN wall-clock estimate, which the outer loop's own
   finiteness guard must catch. *)
let solve_batch_row b ~row ~max_outer ~n_max ?warm (j : batch_job) =
  let p = j.problem and fixed_n = j.fixed_n and delta = j.delta in
  let n_hi = Speedup.search_upper_bound p.speedup ~default:n_max in
  let s = b.Batch.s in
  s.(Batch.slot_fevals) <- 0.;
  s.(Batch.slot_tol) <- 0.1;
  match usable_warm p warm with
  | Some w ->
      let off = row * b.Batch.stride in
      let nl = Array.length p.levels in
      for i = 0 to nl - 1 do
        let x = w.xs.(i) in
        b.Batch.xs.(off + i) <-
          (if Float.is_finite x && x > 1. then x else 1.)
      done;
      let prev_valid = Array.length w.mus = nl in
      if prev_valid then
        for i = 0 to nl - 1 do
          b.Batch.prev_mu.(off + i) <-
            (if Float.is_finite w.mus.(i) then w.mus.(i) else 0.)
        done;
      s.(Batch.slot_n) <-
        (if Float.is_finite w.n && w.n >= 1. then w.n else n_hi);
      s.(Batch.slot_est) <- w.wall_clock;
      batch_outer b ~row ~delta ~max_outer ~n_hi p fixed_n prev_valid true
        infinity 0 false 0 0
  | None ->
      let productive () =
        let n0 = match fixed_n with Some n -> n | None -> n_hi in
        Speedup.productive_time p.speedup ~te:p.te ~n:n0
      in
      let estimate, max_outer =
        match j.inject with
        | Some Ckpt_chaos.Chaos.Non_finite -> (Float.nan, max_outer)
        | Some Ckpt_chaos.Chaos.Diverge -> (productive (), 1)
        | _ -> (productive (), max_outer)
      in
      s.(Batch.slot_est) <- estimate;
      batch_outer b ~row ~delta ~max_outer ~n_hi p fixed_n false false infinity
        0 false 0 0

(* Row 0 of this domain's batch, sized for [p] alone. *)
let reserve_one (p : problem) =
  let b = Domain.DLS.get batch_ws_key in
  let nl = Array.length p.levels in
  Batch.reserve b ~rows:1 ~stride:nl;
  b.Batch.nlev.(0) <- nl;
  b

let solve ?(delta = 1e-9) ?(max_outer = 1_000) ?fixed_n ?(n_max = 1e9) ?warm p =
  check_problem p;
  solve_batch_row (reserve_one p) ~row:0 ~max_outer ~n_max ?warm
    (batch_job ~delta ?fixed_n p)

let expected_wall_clock p ~estimate ~xs ~n =
  let nl = Array.length p.levels in
  if Array.length xs <> nl then
    invalid_arg "Optimizer.expected_wall_clock: xs arity differs from levels";
  let b = reserve_one p in
  for i = 0 to nl - 1 do
    b.Batch.slope.(i) <-
      Failure_spec.rate_per_second' p.spec ~level:(i + 1) *. estimate;
    b.Batch.xs.(i) <- xs.(i)
  done;
  batch_fill b p ~row:0 n;
  Batch.expected_wall_clock b ~row:0 ~te:p.te ~alloc:p.alloc

let solve_batch ?(max_outer = 1_000) ?(n_max = 1e9) (jobs : batch_job array) =
  let k = Array.length jobs in
  if k = 0 then [||]
  else begin
    let b = Domain.DLS.get batch_ws_key in
    let stride =
      Array.fold_left (fun m j -> max m (Array.length j.problem.levels)) 1 jobs
    in
    Batch.reserve b ~rows:k ~stride;
    Array.iteri
      (fun row j ->
        b.Batch.nlev.(row) <- Array.length j.problem.levels;
        if row = 0 || not (jobs.(row - 1).problem == j.problem) then
          check_problem j.problem)
      jobs;
    (* Walk the rows in scale order so each solve can seed from the
       nearest already-converged row: neighbouring scales have
       neighbouring fixed points, so the warm row resumes a contraction
       that is already nearly done.  Results return in input order. *)
    let scale_of (j : batch_job) =
      match j.fixed_n with
      | Some n -> n
      | None -> Speedup.search_upper_bound j.problem.speedup ~default:n_max
    in
    let scales = Array.map scale_of jobs in
    let order = Array.init k Fun.id in
    Array.sort
      (fun i j ->
        match compare scales.(i) scales.(j) with 0 -> compare i j | c -> c)
      order;
    let plans = Array.make k None in
    (* Last converged plan on the walk, kept across diverged rows so one
       pathological job does not orphan the rest of the batch. *)
    let warm_src = ref None in
    Array.iter
      (fun row ->
        let j = jobs.(row) in
        (* Warm starts need the same hierarchy, physically: separately
           built level arrays are never compared (every level carries
           overhead-law closures).  A faulted row neither takes a seed
           nor, since it cannot converge, becomes one. *)
        let warm =
          match !warm_src with
          | Some (_, src_job, src_plan)
            when src_job.problem.levels == j.problem.levels && Option.is_none j.inject ->
              Some src_plan
          | _ -> None
        in
        (* A row starting at the scale its neighbour last filled shares
           the neighbour's overhead-law terms: same hierarchy at the
           same scale means the same values, copied instead of
           recomputed.  Warm rows start at the seed plan's scale, which
           is exactly where a same-hierarchy neighbour's last fill sits
           after its own converged solve. *)
        (match (!warm_src, warm) with
         | Some (src_row, _, src_plan), Some _ ->
             let n0 =
               match j.fixed_n with
               | Some n -> n
               | None -> Float.min scales.(row) src_plan.n
             in
             if src_row <> row && b.Batch.cost_key.(src_row) = n0 then
               Batch.share_costs b ~src:src_row ~dst:row
         | _ -> ());
        let plan = solve_batch_row b ~row ~max_outer ~n_max ?warm j in
        plans.(row) <- Some plan;
        if plan.converged && Float.is_finite plan.wall_clock then
          warm_src := Some (row, j, plan))
      order;
    Array.map (function Some plan -> plan | None -> assert false) plans
  end

type outcome = Converged of plan | Diverged of plan | Non_finite of plan

let plan_of_outcome = function
  | Converged p | Diverged p | Non_finite p -> p

let classify plan =
  if not (Float.is_finite plan.wall_clock) then Non_finite plan
  else if plan.converged then Converged plan
  else Diverged plan

let solve_outcome ?delta ?max_outer ?fixed_n ?n_max ?inject p =
  classify (solve_batch ?max_outer ?n_max [| batch_job ?delta ?fixed_n ?inject p |]).(0)

let single_level_problem p =
  let last = p.levels.(Array.length p.levels - 1) in
  let total =
    Array.fold_left ( +. ) 0. p.spec.Failure_spec.rates_per_day
  in
  { p with
    levels = [| last |];
    spec =
      Failure_spec.v ~baseline_scale:p.spec.Failure_spec.baseline_scale [| total |] }

let ml_opt_scale ?delta p = solve ?delta p

let ml_ori_scale ?delta ?n p =
  let n = Option.value n ~default:(Speedup.search_upper_bound p.speedup ~default:1e9) in
  solve ?delta ~fixed_n:n p

let sl_opt_scale ?delta p = solve ?delta (single_level_problem p)

let sl_ori_scale ?n p =
  let sl = single_level_problem p in
  let n = Option.value n ~default:(Speedup.search_upper_bound sl.speedup ~default:1e9) in
  (* Young's formula (Eq. 25): interval from the productive-time failure
     count; no self-consistent iteration. *)
  let productive = Speedup.productive_time sl.speedup ~te:sl.te ~n in
  let params = multilevel_params sl ~estimate:productive in
  let xs = Multilevel.young_init params ~n in
  let wall_clock = Multilevel.expected_wall_clock params ~xs ~n in
  let sol =
    { Multilevel.xs; n; wall_clock; iterations = 0; f_evals = 0;
      converged = true }
  in
  finish sl ~sol ~estimate:productive ~outer:0 ~inner:0 ~f_evals:0
    ~converged:true

let sl_daly_scale ?n p =
  let sl = single_level_problem p in
  let n = Option.value n ~default:(Speedup.search_upper_bound sl.speedup ~default:1e9) in
  (* Daly's refinement of Young: same shape as [sl_ori_scale] but the
     interval count comes from the higher-order formula, which keeps the
     checkpoint cost term when it is not negligible next to the MTBF. *)
  let productive = Speedup.productive_time sl.speedup ~te:sl.te ~n in
  let ckpt_cost = Overhead.cost sl.levels.(0).Level.ckpt n in
  let failures =
    Failure_spec.rate_per_second sl.spec ~level:1 ~scale:n *. productive
  in
  let x = if ckpt_cost <= 0. then 1. else Daly.interval_count ~productive ~ckpt_cost ~failures in
  let xs = [| x |] in
  let params = multilevel_params sl ~estimate:productive in
  let wall_clock = Multilevel.expected_wall_clock params ~xs ~n in
  let sol =
    { Multilevel.xs; n; wall_clock; iterations = 0; f_evals = 0;
      converged = true }
  in
  finish sl ~sol ~estimate:productive ~outer:0 ~inner:0 ~f_evals:0
    ~converged:true

let pp_plan ppf t =
  let b = t.breakdown in
  Format.fprintf ppf
    "@[<v>xs = [%s]@ N = %.0f@ E(Tw) = %.4g s (%.3f days)@ mus = [%s]@ \
     portions: productive=%.4g ckpt=%.4g restart=%.4g alloc=%.4g rollback=%.4g@ \
     efficiency = %.4f@ iterations: outer=%d inner=%d f_evals=%d \
     converged=%b@]"
    (String.concat "; "
       (Array.to_list (Array.map (fun x -> Printf.sprintf "%.1f" x) t.xs)))
    t.n t.wall_clock
    (t.wall_clock /. Failure_spec.seconds_per_day)
    (String.concat "; "
       (Array.to_list (Array.map (fun m -> Printf.sprintf "%.2f" m) t.mus)))
    b.Multilevel.productive b.Multilevel.checkpoint b.Multilevel.restart
    b.Multilevel.allocation b.Multilevel.rollback t.efficiency t.outer_iterations
    t.inner_iterations t.f_evals t.converged
