(** Algorithm 1 of the paper: the complete optimizer.

    The inner convex subproblem ({!Multilevel.optimize_reference}) assumes the
    expected failure counts [mu_i] depend only on the scale; in truth they
    scale with the wall-clock length, which is itself the objective.  The
    outer loop closes that circle: it re-estimates
    [mu_i(N) = lambda_i(N) * E(T_w)] from each new solution and repeats
    until the [mu_i] converge (threshold [delta], paper uses 1e-12).

    The module also packages the paper's four compared solutions
    (Section IV-A): ML/SL crossed with optimized/original scale. *)

type problem = {
  te : float;  (** single-core productive time, seconds *)
  speedup : Speedup.t;
  levels : Level.t array;  (** the full hierarchy, cheapest level first *)
  alloc : float;  (** allocation period [A], seconds *)
  spec : Ckpt_failures.Failure_spec.t;
      (** per-level failure rates; must have one rate per level *)
}

type plan = {
  xs : float array;  (** interval counts per hierarchy level ([1.] = level unused) *)
  n : float;  (** execution scale *)
  wall_clock : float;  (** predicted [E(T_w)], seconds *)
  mus : float array;  (** expected failures per level over the run *)
  breakdown : Multilevel.breakdown;
  efficiency : float;  (** [(te / wall_clock) / n] — paper Section IV-A *)
  outer_iterations : int;
  inner_iterations : int;  (** total inner fixed-point iterations *)
  f_evals : int;  (** Eq. 24 derivative evaluations across all scale searches *)
  fallbacks : int;
      (** always 0: the solver no longer has a step it reverts.  Kept so
          plan JSON and snapshots keep their shape. *)
  converged : bool;
}

val check_problem : problem -> unit
(** Boundary validation: every numeric field of the problem must be
    finite ([te > 0], [alloc >= 0], rates [>= 0], positive baseline
    scale, finite overhead coefficients with [eps >= 0], and a speedup
    that is finite-positive at [N = 1] with a finite ideal scale) — a
    NaN or [±inf] anywhere would otherwise slip past the range checks
    and surface as a NaN plan deep in the fixed point.
    @raise Invalid_argument on any violation, including a spec whose
    level count differs from the hierarchy's. *)

val solve :
  ?delta:float ->
  ?max_outer:int ->
  ?fixed_n:float ->
  ?n_max:float ->
  ?warm:plan ->
  problem ->
  plan
(** Run Algorithm 1.  [delta] (default [1e-9]) bounds
    [max_i |mu_i' - mu_i|]; [fixed_n] pins the scale (ori-scale
    baselines); [n_max] bounds the scale search for peakless speedups.

    [warm] seeds the solve from a neighbouring problem's plan: its wall
    clock replaces the failure-free initial estimate, its mus seed the
    drift reference and its [(xs, n)] initialize the inner fixed point
    (with {!Multilevel.optimize_reference}'s [init] checks: non-finite
    or [<= 1] intervals start at 1, a non-finite or [< 1] scale is
    ignored).  A [warm] plan whose level arity differs or
    whose wall clock is not finite-positive is ignored.  Warm starting
    moves only the starting point of the contraction, so the returned
    plan matches a cold solve to the solver tolerances while spending
    fewer iterations.  A converged plan is a fixed point: re-solved from
    itself, a problem returns the same scale bits in at most two outer
    rounds.

    The solve is a one-row {!solve_batch}: it runs on row 0 of the same
    per-domain {!Ckpt_fastpath.Batch} workspace, so inner iterations do
    no heap allocation, and neither function may be re-entered within a
    domain.  It runs accelerated end to end:
    - an ITP Eq. 24 scale search (superlinear, with the bisection
      recurrence replayed exactly over [1, n_hi], so every search of
      every round lands on one lattice and the scale is a function of
      the xs alone);
    - Newton steps on the outer wall-clock estimate, whose derivative
      G'(e) = F/e comes free from the round's plan (F the restart,
      allocation and rollback part of E(T_w), by the envelope theorem),
      gated a priori and degrading to the plain fixed-point step;
    - warm-seeded outer rounds, each resuming from the previous round's
      solution while the mu drift keeps contracting, and solved only as
      tightly as the outer residual warrants (xs step
      max(1e-6, 0.1 |r|/e));
    - a free-scale solve ends on the reference's cold-round discipline:
      once a warm round meets the drift test, cold rounds run until one
      meets it too, so the returned scale does not depend on the
      seeding path.  Two non-improving warm rounds also switch to cold
      rounds.
    The xs fixed point itself takes the reference's plain Gauss–Seidel
    steps.  The contract against {!solve_reference} is plan
    equivalence: same integer scale, E(T_w) within 1e-9 relative. *)

val solve_reference :
  ?delta:float ->
  ?max_outer:int ->
  ?fixed_n:float ->
  ?n_max:float ->
  ?warm:plan ->
  problem ->
  plan
(** {!solve} with plain bisection, plain fixed-point steps and cold
    outer rounds after the first ({!Multilevel.optimize_reference},
    every term evaluated through the model closures, no workspace) —
    the correctness oracle: {!solve} and {!solve_batch} must both
    produce plan-equivalent results, which the fastpath property tests
    check. *)

val expected_wall_clock :
  problem -> estimate:float -> xs:float array -> n:float -> float
(** Eq. (21) for the problem with [mu_i(N) = lambda_i(N) * estimate],
    evaluated the way the solver evaluates it: the solver's own row fill
    and [Batch.expected_wall_clock] on row 0 of this domain's batch
    workspace (so, like {!solve}, not callable from inside a solve).
    Bitwise equal to {!Multilevel.expected_wall_clock} on the same
    model, which the fastpath property tests check for every speedup
    form.
    @raise Invalid_argument if [xs] has another arity than the
    hierarchy. *)

(** One problem of a batch solve: [fixed_n]/[delta] as in {!solve};
    [inject] applies a chaos solver fault to the row (see
    {!solve_outcome}). *)
type batch_job = {
  problem : problem;
  fixed_n : float option;
  delta : float;
  inject : Ckpt_chaos.Chaos.fault option;
}

val batch_job :
  ?delta:float -> ?fixed_n:float -> ?inject:Ckpt_chaos.Chaos.fault -> problem -> batch_job
(** [delta] defaults to [1e-9], matching {!solve}; no fault by default. *)

val solve_batch :
  ?max_outer:int -> ?n_max:float -> batch_job array -> plan array
(** Solve K problems in one pass over the struct-of-arrays batch
    workspace (one per domain, shared with {!solve}; neither may be
    re-entered within a domain): problem terms live in contiguous
    per-level stripes, the Algorithm-1 outer loop runs allocation-free
    per row, overhead-law terms are cached per scale across the outer
    rounds, and neighbouring rows that share a hierarchy and scale
    share those terms outright.  Plans return in job order.

    Rows are {e solved} in scale order ([fixed_n], else the speedup's
    ideal scale; equal scales in input order): each row warm-starts
    from the nearest already-converged row of the same hierarchy —
    seeded xs, scale bracket and mu estimate.  A grid sweep of one
    problem is therefore one batch: its scales as [fixed_n] rows, or
    its te/alloc variants ([{ p with te }], sharing [p]'s [levels]).
    The same hierarchy means the same [levels] array, physically: rows
    whose problems were built separately (say, parsed from two JSON
    objects) never seed each other, even when their levels are equal,
    so each solves exactly as it would alone.  A
    diverged row is skipped as a seed source, not a chain breaker.  A
    faulted row ([inject] set) solves cold and, since a [Diverge] or
    [Non_finite] row cannot converge, never becomes a seed.

    Contract: each row's plan is plan-equivalent to
    [solve_reference ?delta ?fixed_n problem] of its job — same integer
    scale, E(T_w) within 1e-9 relative — with the evaluation kernels
    themselves bit-identical; the fastpath property tests check both.

    @raise Invalid_argument if any job's problem fails
    {!check_problem}. *)

(** How a solve ended.  [solve] already hard-caps both iteration layers
    ([max_outer], and 10,000 inner iterations per round), so it always
    terminates; the outcome makes the three terminal states explicit
    instead of leaving callers to decode [converged]/[wall_clock]:

    - [Converged]: the fixed point settled — the plan is trustworthy;
    - [Diverged]: the iteration caps ran out before the [mu] drift fell
      under [delta] — the plan is the best iterate, not an optimum;
    - [Non_finite]: the failure burden exceeds what any schedule can
      absorb (paper Section III-D) or an estimate went NaN — the plan's
      wall clock is not finite and must not be served. *)
type outcome = Converged of plan | Diverged of plan | Non_finite of plan

val classify : plan -> outcome
(** Classify a finished solve: non-finite wall clock wins, then
    [converged]. *)

val plan_of_outcome : outcome -> plan

val solve_outcome :
  ?delta:float ->
  ?max_outer:int ->
  ?fixed_n:float ->
  ?n_max:float ->
  ?inject:Ckpt_chaos.Chaos.fault ->
  problem ->
  outcome
(** A one-row {!solve_batch}, classified.  Without [inject] the plan is
    byte-identical to {!solve}'s.  [inject] applies a chaos fault to
    the row: [Diverge] starves the outer loop of rounds ([max_outer] 1)
    so it cannot settle, [Non_finite] starts it from a NaN wall-clock
    estimate so the loop's own finiteness guard trips; both solve cold
    and exercise the real failure paths rather than fabricating an
    outcome.  Other faults are ignored here. *)

val ml_opt_scale : ?delta:float -> problem -> plan
(** This paper's solution: all levels, optimized intervals and scale. *)

val ml_ori_scale : ?delta:float -> ?n:float -> problem -> plan
(** Prior work [22]: all levels, optimized intervals, scale fixed at [n]
    (default: the speedup's ideal scale). *)

val sl_opt_scale : ?delta:float -> problem -> plan
(** Jin-style baseline [23]: PFS level only (absorbing the total failure
    rate), optimized interval and scale. *)

val sl_ori_scale : ?n:float -> problem -> plan
(** Classic Young [3]: PFS level only, interval from Young's formula with
    the productive-time failure count, scale fixed at [n] (default: ideal
    scale).  No outer iteration — Young's formula is not self-consistent. *)

val sl_daly_scale : ?n:float -> problem -> plan
(** Daly's higher-order refinement [4] of {!sl_ori_scale}: PFS level
    only, interval count from {!Daly.interval_count} (which keeps the
    checkpoint-cost correction Young drops), scale fixed at [n]
    (default: ideal scale).  Like Young, not self-consistent — the
    wall clock is the one-shot Eq. (21) evaluation of the pinned plan. *)

val single_level_problem : problem -> problem
(** The PFS-only collapse used by the SL baselines: keeps the last level
    and aggregates every level's failure rate onto it. *)

val pp_plan : Format.formatter -> plan -> unit
