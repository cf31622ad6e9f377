(** The multilevel checkpoint model (paper Sections II and III-D).

    With [L] levels, [x_i] checkpoint intervals at level [i], scale [N]
    and fixed expected-failure laws [mu_i(N)], the expected wall-clock
    time is paper Eq. (21):

    [E(T_w) = T_e/g(N) + sum_i C_i(N) (x_i - 1)
              + sum_i mu_i(N) ( T_e/(g(N) 2 x_i)
                                + sum_{k<=i} C_k(N) x_k / (2 x_i)
                                + A + R_i(N) )]

    The rollback of a level-i failure re-pays the lower-level checkpoints
    written inside the lost interval — that is the
    [sum_{k<=i} C_k x_k/(2 x_i)] term (Eq. 18) that couples the levels and
    makes the system of first-order conditions (Eq. 23/24) non-separable. *)

type params = {
  te : float;  (** single-core productive time, seconds *)
  speedup : Speedup.t;
  levels : Level.t array;  (** cheapest first; the last level is the PFS *)
  alloc : float;  (** allocation period [A], seconds *)
  mus : Scale_fn.t array;  (** [mu_i(N)], one per level *)
}

type solution = {
  xs : float array;  (** optimal interval counts, all >= 1 *)
  n : float;  (** optimal scale *)
  wall_clock : float;
  iterations : int;
  f_evals : int;  (** Eq. 24 derivative evaluations spent in scale searches *)
  converged : bool;
}

(** The model's prediction of the stacked time portions reported in the
    paper's Figures 5/6. *)
type breakdown = {
  productive : float;
  checkpoint : float;  (** first-write checkpoint overhead *)
  restart : float;  (** recovery reads, [sum mu_i R_i] *)
  allocation : float;  (** re-allocation cost, [sum mu_i A] *)
  rollback : float;  (** lost work + re-paid lower-level checkpoints *)
}

val check_params : params -> unit
(** @raise Invalid_argument on inconsistent sizes or non-positive inputs. *)

val expected_rollback : params -> xs:float array -> n:float -> level:int -> float
(** Eq. (18): expected rollback loss of one failure at [level] (1-based). *)

val expected_wall_clock : params -> xs:float array -> n:float -> float
(** Eq. (21). *)

val breakdown : params -> xs:float array -> n:float -> breakdown
(** Portion-wise decomposition; the fields sum to
    {!expected_wall_clock}. *)

val d_dx : params -> xs:float array -> n:float -> level:int -> float
(** Eq. (23) for the given (1-based) level. *)

val d_dn : params -> xs:float array -> n:float -> float
(** Eq. (24). *)

val x_update : params -> xs:float array -> n:float -> level:int -> float
(** Fixed-point map solving Eq. (23) for [x_level] with the other
    variables held; clamped to [>= 1]. *)

val young_init : params -> n:float -> float array
(** Eq. (25): per-level Young intervals, the iteration's starting point. *)

val optimize_reference :
  ?tol:float ->
  ?max_iter:int ->
  ?n_max:float ->
  ?fixed_n:float ->
  ?init:float array * float ->
  params ->
  solution
(** The inner optimizer: Gauss–Seidel sweeps of {!x_update} over the
    levels alternated with a bisection solve of [d_dn = 0] on
    [\[1, N_star\]], every term evaluated through the overhead-law and
    [mus] closures.  [fixed_n] pins the scale (the ML(ori-scale)
    baseline).

    [init] warm-starts the iteration from [(xs, n)] — typically a
    neighbouring solution — instead of {!young_init}: each [x] starts at
    its seed when that is finite and [> 1], else at [1] (the whole [xs]
    is ignored if its arity differs); a finite [n >= 1] seeds the scale
    when [fixed_n] is absent, and the first scale bisection brackets
    geometrically around it before falling back to the full interval.

    This is the correctness oracle for the production solver
    ([Optimizer.solve] and [Optimizer.solve_batch], which run the same
    iteration accelerated on the {!Ckpt_fastpath} [Batch] kernels): each
    Algorithm-1 round there must reach a plan-equivalent solution (same
    integer scale, E(T_w) within 1e-9 relative), which
    test/test_fastpath.ml property-tests through
    [Optimizer.solve_reference]. *)
