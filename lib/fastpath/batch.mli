(** Struct-of-arrays workspace for the Algorithm-1 solver, one row per
    problem.

    Each row of the batch owns a contiguous stripe of every per-level
    array.  The evaluation kernels are row-indexed, allocation-free
    versions of the [Ckpt_model.Multilevel] reference functions and are
    {e bit-identical} to them: the same floating-point operations in the
    same order, reading per-level terms from the stripes instead of
    re-evaluating overhead laws — see lib/fastpath/README.md.  The
    caller (the model library, which knows the overhead laws) fills a
    row's terms at a scale before invoking a kernel on it.

    A batch instance is single-domain scratch: [Optimizer] keeps one per
    domain in domain-local storage and runs both [Optimizer.solve] (on
    row 0) and [Optimizer.solve_batch] on it, so neither may be
    re-entered within a domain; segments of rows handed to pool workers
    land on that worker's own instance. *)

type t = {
  mutable rows : int;
  mutable stride : int;
  mutable ci : float array;
  mutable ci_d : float array;
  mutable ri : float array;
  mutable ri_d : float array;
  mutable mi : float array;
  mutable mi_d : float array;
  mutable xs : float array;
  mutable xs_prev : float array;
  mutable slope : float array;
  mutable mu : float array;
  mutable prev_mu : float array;
  mutable nlev : int array;
  mutable key : float array;
  mutable cost_key : float array;
  s : float array;
}

(** Shared scalar slots of [s].  Rows are solved to completion one at a
    time, so the slots hold the current row's state. *)

val slot_g : int
(** Speedup [g(n)] at the scale last filled. *)

val slot_gd : int
(** Speedup derivative [g'(n)] at the scale last filled. *)

val slot_acc : int
(** Accumulator scratch owned by whichever kernel or loop is running. *)

val slot_n : int
(** The solver's scale iterate — kept in a slot because a float argument
    threaded through a (non-inlined) recursive loop boxes on every call. *)

val slot_wall : int
(** E(T_w) of the row's last inner solve. *)

val slot_est : int
(** The outer loop's wall-clock estimate, which scales the mu laws. *)

val slot_fevals : int
(** Running count of Eq. 24 evaluations during the row's solve. *)

val slot_tol : int
(** The current outer round's inner stop: the xs step at or below which
    the round's fixed point counts as converged. *)

val create : ?rows:int -> ?stride:int -> unit -> t
(** Allocate a batch workspace; it grows on {!reserve}. *)

val reserve : t -> rows:int -> stride:int -> unit
(** Size the workspace for [rows] problems of up to [stride] levels
    each and invalidate every row's fill keys. *)

val share_costs : t -> src:int -> dst:int -> unit
(** Copy the overhead-law stripes (and their [cost_key]) from [src] to
    [dst].  Only valid when both rows have physically equal level
    hierarchies and [dst] is about to be filled at [cost_key.(src)];
    the caller checks both. *)

val x_sweep : t -> row:int -> te:float -> unit
(** One Gauss–Seidel sweep of Eq. (23) over the row, in place. *)

val d_dn : t -> row:int -> te:float -> alloc:float -> float
(** Eq. (24) at the row's key scale. *)

val expected_wall_clock : t -> row:int -> te:float -> alloc:float -> float
(** Eq. (21) at the row's key scale. *)

val young_init : t -> row:int -> te:float -> unit
(** Eq. (25) into the row's [xs], in place. *)

val max_abs_diff_xs : t -> row:int -> float
(** Max absolute difference between the row's [xs_prev] and [xs] — the
    inner fixed point's convergence metric. *)

val rotate_xs : t -> row:int -> unit
(** Save the row's [xs] to [xs_prev] before a sweep. *)

val mu_drift : t -> row:int -> float
(** Max absolute difference between the row's [prev_mu] and [mu]
    stripes — the Algorithm-1 outer drift. *)

val commit_mus : t -> row:int -> unit
(** Make the row's current [mu] stripe the next round's drift
    reference. *)

val xs_copy : t -> row:int -> float array
(** The row's live [xs] prefix as a fresh array. *)
