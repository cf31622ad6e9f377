(** One-dimensional root finding.

    The multilevel optimizer solves [dE(T_w)/dN = 0] with a bisection search
    over the convex region [(0, N_star]] (paper Section III-C.2): plain
    bisection in the reference solvers, {!itp_integer} in the production
    one. *)

type outcome = {
  root : float;
  iterations : int;
  f_evals : int;  (** number of evaluations of [f] performed *)
}

exception No_bracket of string
(** Raised by {!bisect} when the supplied interval does not bracket a sign
    change. *)

val bisect :
  ?tol_x:float -> ?max_iter:int -> f:(float -> float) -> lo:float -> hi:float -> unit -> outcome
(** [bisect ~f ~lo ~hi ()] finds a root of [f] in [\[lo, hi\]].
    [f lo] and [f hi] must have opposite (or zero) signs.  Stops when the
    interval width falls below [tol_x] (default [1e-9]).
    @raise No_bracket if the interval does not bracket a root. *)

val bisect_integer :
  f:(float -> float) -> lo:float -> hi:float -> unit -> outcome
(** Bisection specialized to integer-valued answers: stops as soon as the
    bracketing interval is narrower than [0.5], matching the paper's early
    stop for the optimal core count [N*].
    @raise No_bracket if the interval does not bracket a root. *)

val itp_integer :
  ?flo:float ->
  ?fhi:float ->
  ?inner:float * float * float * float ->
  f:(float -> float) -> lo:float -> hi:float -> unit -> outcome
(** Superlinear drop-in for {!bisect_integer}: ITP steps (regula falsi
    truncated toward the midpoint, projected onto the shrinking minmax
    envelope — Oliveira & Takahashi 2020) refine the bracket, then the
    exact {!bisect_integer} probe recurrence is replayed with probe
    signs inferred from the refined bracket.  When [f] has a single
    sign change on [\[lo, hi\]] the returned [root] is bit-identical to
    {!bisect_integer}'s, typically at under half the evaluations; ITP's
    minmax envelope (six slack probes) bounds the refinement's worst
    case a few probes past the bisection budget.  [?flo]
    and [?fhi] pass along already-known endpoint values so the caller's
    guard evaluations are not repeated.

    [?inner:(a, fa, b, fb)] is a bracket the caller already knows to
    straddle the root: [lo <= a < b <= hi], with [fa = f a] of the sign
    of [f lo] and [fb = f b] of the sign of [f hi], both non-zero.  The
    endpoints are then not evaluated (their signs are [fa]'s and
    [fb]'s), ITP starts from [\[a, b\]] — or is skipped when
    [b - a <= 1], where the replay's own probes are cheaper — and the
    replay still runs over [\[lo, hi\]], so the returned [root] and
    [iterations] are those of {!bisect_integer} on [\[lo, hi\]] under
    the same single-sign-change condition.
    @raise No_bracket if the interval does not bracket a root.
    @raise Invalid_argument if [inner] is not inside [\[lo, hi\]], its
    values are zero or of equal signs, or they disagree in sign with a
    supplied [flo] / [fhi]. *)

val minimize_golden :
  ?tol:float -> ?max_iter:int -> f:(float -> float) -> lo:float -> hi:float -> unit -> outcome
(** Golden-section search for the minimum of a unimodal function; used by
    the Markov model's interval search and by tests to confirm that
    stationary points found via derivatives are actual minima. *)
