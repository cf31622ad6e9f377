(** Special functions.

    Currently the gamma function family, needed to calibrate Weibull
    failure inter-arrival laws to a target mean rate
    ([mean = scale * Gamma (1 + 1/shape)]). *)

val log_gamma : float -> float
(** [log_gamma x] is [ln (Gamma x)] for [x > 0], via the Lanczos
    approximation (|error| < 1e-10 over the usual range). *)

val gamma : float -> float
(** [gamma x] for [x > 0].  Overflow-prone beyond ~170; use
    {!log_gamma} there. *)

val factorial : int -> float
(** [factorial n] as a float ([gamma (n + 1)] with exact small cases).
    Requires [n >= 0]. *)

val gamma_p : a:float -> x:float -> float
(** Regularized lower incomplete gamma [P(a, x)] for [a > 0] — the CDF of
    a unit-scale gamma variate with shape [a], and of half a chi-square
    with [2a] degrees of freedom.  Power series below [x = a + 1], Lentz
    continued fraction above, each run until its terms fall below 1e-14
    relative with a cap of [500 + 10 ceil (sqrt a)] terms: enough for
    [a] up to ~1e10 (near [x = a] the series needs ~8 [sqrt a] terms).
    Below [a ~ 4,000] the cap is never reached.  Checked to 1e-6 of
    [min (p, 1 - p)] at the quantiles of [a] up to 1e7, where one
    evaluation costs up to ~25,000 series terms. *)

val gamma_q : a:float -> x:float -> float
(** [1 - gamma_p ~a ~x]. *)

val gamma_p_inv : a:float -> p:float -> float
(** Quantile: the [x] with [P(a, x) = p], for [p] in [\[0, 1)].  Used for
    exact Poisson confidence bounds on observed failure counts
    ([chi^2_q(2k) / 2 = gamma_p_inv ~a:k ~p:q]).

    The result is the point a plain bisection lands on: [\[0, top\]],
    [top] grown by doubling from [max 1 (2a)] until [P(top) >= p], then
    halved 200 times on the test [P(mid) < p].  It is found with ~30
    evaluations of {!gamma_p} instead of ~201: ln Gamma(a) is computed
    once, a Newton search in [ln x] finds the root, the tests at
    [x (1 -+ 1e-9)] are measured, and the same halvings are replayed,
    evaluating only the midpoints between those two points and stopping
    once a midpoint equals an end.  [P] is monotone up to rounding
    noise far narrower than that bracket, so wherever its two tests
    bracket the root every test the replay infers has the sign the
    bisection would have measured, and the result is the plain search's
    on the same {!gamma_p}, bit for bit; where they do not, every
    midpoint is evaluated.  Against the earlier search on a 500-term {!gamma_p} the
    result is bit-identical for every [a <= 4,000] and at the 2.5% and
    97.5% quantiles of integer [a] up to 7,000 (the first difference,
    at the 2.5% quantile, is at [a = 7,234]); past that the capped series stopped short and the
    quantile moves (the old 2.5% quantile's true [P] was 0.0252 at
    [a = 1e5] and 0.0997 at [a = 1e7]).  Because each evaluation now
    runs to convergence, a quantile at [a ~ 1e7] costs more than the
    earlier capped one did: ~30 evaluations of up to ~25,000 terms
    each. *)

val gamma_p_inv_outcome : a:float -> p:float -> Roots.outcome
(** {!gamma_p_inv} with its work: [root] is the quantile, [iterations]
    the halvings replayed (at most 200) and [f_evals] the evaluations of
    [P] spent, doubling and Newton search included ([0] when [p = 0]). *)
