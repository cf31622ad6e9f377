(** Online per-level failure-rate estimation from telemetry.

    The paper's rate law (Section IV-A) is
    [lambda_i(N) = r_i / 86400 * N / N_b]: failures per second are
    proportional to the execution scale.  The estimator therefore
    accumulates {e exposure in core-seconds} ([scale * wall seconds],
    read off the telemetry timestamps) and failure counts per level; the
    maximum-likelihood rate per core-second is [count / exposure], which
    converts to the paper's per-day-at-[N_b] parameterization through
    {!rate_per_day} at any baseline.

    Two histories are kept:

    - {e weighted} counts and exposure drive the point estimates.  With
      [half_life] set they decay exponentially in core-seconds of
      exposure (an EWMA — recent behaviour dominates, so the estimate
      tracks drifting rates); {!forget} discounts them on demand, which a
      change-point alarm uses to drop stale history while keeping the
      current point estimate continuous.
    - {e raw} integer counts and undiscounted exposure drive the exact
      Poisson confidence intervals of {!confidence_per_day} and the
      sample-size gates of the controller.

    Values are immutable; {!observe} returns a new estimator. *)

type t

val create : ?half_life:float -> ?scale:float -> levels:int -> unit -> t
(** [half_life] is in core-seconds of exposure; omitted = no decay (pure
    MLE).  [scale] (default [1.]) is used for exposure accrued before the
    first [Run_start] announces the real scale. *)

val levels : t -> int

val observe : t -> Telemetry.event -> t
(** Advance exposure to the event's timestamp (at the current scale) and
    ingest it.  Time regressions are clamped to zero elapsed; exposure
    does not accrue across the gap between a [Run_end] and the next
    [Run_start]. *)

val observe_all : t -> Telemetry.event list -> t

val forget : t -> keep:float -> t
(** Multiply the weighted histories by [keep] (in [\[0, 1\]]): point
    estimates are unchanged but carry [1/keep] times less inertia, so
    subsequent observations dominate quickly.  Raw histories are kept. *)

val count : t -> level:int -> int
(** Raw failure count at a 1-based level. *)

val total_count : t -> int

val exposure : t -> float
(** Raw exposure in core-seconds. *)

val rate_per_core_second : t -> level:int -> float
(** Weighted MLE [counts / exposure]; [0.] while exposure is zero. *)

val rate_per_day : t -> level:int -> baseline_scale:float -> float
(** The paper's [r_i]: failures per day at [baseline_scale] cores. *)

val confidence_per_day :
  ?coverage:float -> t -> level:int -> baseline_scale:float -> float * float
(** Exact (Garwood) Poisson confidence interval on {!rate_per_day}, from
    the raw histories: with [k] failures in [E] core-seconds, the bounds
    are the chi-square quantiles [chi2_{alpha/2}(2k) / 2E] and
    [chi2_{1-alpha/2}(2k+2) / 2E].  [coverage] defaults to [0.95].  The
    lower bound is [0.] when [k = 0]; the interval is [(0., infinity)]
    while exposure is zero.  Each bound is one incomplete-gamma quantile
    of ~30 evaluations of [P(a, x)] ({!Ckpt_numerics.Special.gamma_p_inv}).
    @raise Invalid_argument unless [valid_coverage coverage]. *)

val valid_coverage : float -> bool
(** [coverage] in [(0, 1 - 2^-52\]]: in [(0, 1)], and with
    [1 - (1 - coverage) / 2] still below 1.  The largest double below 1,
    [1 - 2^-53], is the one coverage in [(0, 1)] it excludes. *)

val to_spec :
  ?prior_strength:float -> t -> like:Ckpt_failures.Failure_spec.t -> Ckpt_failures.Failure_spec.t
(** Fitted spec at [like]'s baseline scale.  [prior_strength] (core-seconds
    of pseudo-exposure, default [0.]) shrinks each level's estimate toward
    [like]'s rate under a conjugate Gamma prior:
    [(count + prior_rate * tau) / (exposure + tau)] — stabilizing early
    estimates when few failures have been seen. *)

val to_json : t -> Ckpt_json.Json.t
(** The full estimator state — weighted and raw histories, current scale
    and the exposure watermark [last_at] — for durable snapshots.  Floats
    serialize losslessly, so {!of_json} restores a structurally equal
    value. *)

val of_json : Ckpt_json.Json.t -> (t, string) result
(** Validated decode of a {!to_json} document: arity, finiteness and
    sign checks mirror {!create}'s; any malformed input is an [Error],
    never an exception. *)

val pp : Format.formatter -> t -> unit
