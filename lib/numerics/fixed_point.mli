(** The convergence metric of the paper's fixed-point iterations.

    Both loops of Algorithm 1 are fixed-point iterations: the inner loop
    alternates the interval updates (Eq. 16/23) with the scale update
    (Eq. 17/24), and the outer loop re-estimates the expected failure
    counts [mu_i] until they stop moving.  The loops themselves live in
    [Ckpt_model.Multilevel.optimize_reference] and
    [Ckpt_model.Optimizer]; both measure a step with this distance. *)

val max_abs_diff : float array -> float array -> float
(** Pointwise infinity-norm distance; the convergence test of Algorithm 1
    ([max_i |mu_i' - mu_i| <= delta]). *)
