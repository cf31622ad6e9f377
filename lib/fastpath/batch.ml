(* Struct-of-arrays batch workspace: K problems' solver state laid out
   in contiguous stripes of preallocated float arrays, so a batch pass
   touches memory linearly and the per-row kernels allocate nothing.

   Row [r] owns elements [r*stride .. r*stride + levels - 1] of every
   stripe.  The scalar accumulators live in the shared [s] array — rows
   are solved to completion one at a time within a batch, and each
   domain gets its own [t] (see [Optimizer.solve_batch]), so the slots
   are never contended.

   Bit-identity contract: every kernel here reproduces the
   floating-point operation sequence of its reference function in
   [Ckpt_model.Multilevel] exactly — same terms, same association, same
   division placement — so each evaluation is bitwise equal to the
   closure-evaluated reference, not merely close.  Prefix sums the
   reference recomputes per level are carried as running accumulators
   (the identical addition chain); suffix sums (the [higher] term of
   Eq. 23) are recomputed per level in increasing index order, because a
   running suffix would reassociate.  See lib/fastpath/README.md.

   Two validity keys per row split the fill cache by what actually
   changed: [cost_key] guards the overhead-law terms (functions of the
   scale alone — they survive the outer mu re-estimation rounds of
   Algorithm 1 and can be shared between rows probing the same scale),
   while [key] additionally covers the mu terms and the shared
   speedup slots, which depend on the current wall-clock estimate. *)

type t = {
  mutable rows : int;
  mutable stride : int;  (* row pitch; >= max levels over the batch *)
  (* Per-level stripes, [rows * stride] elements. *)
  mutable ci : float array;  (* C_i(n), checkpoint cost *)
  mutable ci_d : float array;  (* C_i'(n) *)
  mutable ri : float array;  (* R_i(n), restart cost *)
  mutable ri_d : float array;  (* R_i'(n) *)
  mutable mi : float array;  (* mu_i(n) at the row's current estimate *)
  mutable mi_d : float array;  (* mu_i'(n) *)
  mutable xs : float array;  (* interval-count iterate *)
  mutable xs_prev : float array;  (* previous iterate, for convergence *)
  mutable slope : float array;  (* lambda'_i * estimate, the mu slope *)
  mutable mu : float array;  (* mu values at the row's solved scale *)
  mutable prev_mu : float array;  (* previous outer round's mu values *)
  (* Per-row scalars, [rows] elements. *)
  mutable nlev : int array;  (* live level count of the row *)
  mutable key : float array;  (* scale the full row is filled at (nan: none) *)
  mutable cost_key : float array;  (* scale the cost stripes are filled at *)
  s : float array;  (* shared scalar slots, indices below *)
}

(* Shared scalar slots: the speedup terms at the filled scale, kernel
   accumulators, and the per-row solve state ([slot_n], [slot_wall],
   [slot_est], the evaluation counter and the inner tolerance) that must
   not box across loop iterations.  Scalars live in a float array
   because a mutable float field of a mixed record (or a [float ref])
   boxes on every write under the non-flambda compiler. *)
let slot_g = 0
let slot_gd = 1
let slot_acc = 2
let slot_acc2 = 3
let slot_acc3 = 4
let slot_n = 5
let slot_wall = 6
let slot_est = 7
let slot_fevals = 8
let slot_tol = 9
let num_slots = 10

let create ?(rows = 16) ?(stride = 4) () =
  let rows = max 1 rows and stride = max 1 stride in
  let mk () = Array.make (rows * stride) 0. in
  { rows;
    stride;
    ci = mk (); ci_d = mk ();
    ri = mk (); ri_d = mk ();
    mi = mk (); mi_d = mk ();
    xs = mk (); xs_prev = mk ();
    slope = mk (); mu = mk (); prev_mu = mk ();
    nlev = Array.make rows 0;
    key = Array.make rows nan;
    cost_key = Array.make rows nan;
    s = Array.make num_slots nan }

let reserve t ~rows ~stride =
  if rows < 1 then invalid_arg "Batch.reserve: rows < 1";
  if stride < 1 then invalid_arg "Batch.reserve: stride < 1";
  if rows * stride > Array.length t.ci then begin
    let mk () = Array.make (rows * stride) 0. in
    t.ci <- mk (); t.ci_d <- mk ();
    t.ri <- mk (); t.ri_d <- mk ();
    t.mi <- mk (); t.mi_d <- mk ();
    t.xs <- mk (); t.xs_prev <- mk ();
    t.slope <- mk (); t.mu <- mk (); t.prev_mu <- mk ()
  end;
  if rows > Array.length t.nlev then begin
    t.nlev <- Array.make rows 0;
    t.key <- Array.make rows nan;
    t.cost_key <- Array.make rows nan
  end;
  t.rows <- rows;
  t.stride <- stride;
  for r = 0 to rows - 1 do
    t.key.(r) <- nan;
    t.cost_key.(r) <- nan
  done

(* Share the overhead-law terms computed by [src] with [dst]: valid only
   when both rows describe the same level hierarchy and the same scale
   (the caller checks physical equality of the levels and the keys). *)
let share_costs t ~src ~dst =
  let n = t.nlev.(src) in
  Array.blit t.ci (src * t.stride) t.ci (dst * t.stride) n;
  Array.blit t.ci_d (src * t.stride) t.ci_d (dst * t.stride) n;
  Array.blit t.ri (src * t.stride) t.ri (dst * t.stride) n;
  Array.blit t.ri_d (src * t.stride) t.ri_d (dst * t.stride) n;
  t.cost_key.(dst) <- t.cost_key.(src)

(* --- kernels, bit-identical to [Multilevel]'s, row by row ------------ *)

(* One Gauss–Seidel sweep of Eq. (23) over the row's levels, in place:
   [Multilevel.x_update] called level by level, with the [lower] prefix
   (T_e/g + sum_{j<i} C_j x_j) carried as a running accumulator. *)
let x_sweep t ~row ~te =
  let s = t.s in
  let off = row * t.stride in
  let last = off + t.nlev.(row) - 1 in
  s.(slot_acc) <- te /. s.(slot_g);
  for i = off to last do
    let ci = t.ci.(i) in
    let x =
      if ci <= 0. then 1.
      else begin
        s.(slot_acc2) <- 0.;
        for j = i + 1 to last do
          s.(slot_acc2) <- s.(slot_acc2) +. (t.mi.(j) /. t.xs.(j))
        done;
        let denom = 2. *. ci *. (1. +. (s.(slot_acc2) /. 2.)) in
        Float.max 1. (sqrt (t.mi.(i) *. s.(slot_acc) /. denom))
      end
    in
    t.xs.(i) <- x;
    s.(slot_acc) <- s.(slot_acc) +. (ci *. x)
  done

(* Eq. (24) at the row's key scale: [Multilevel.d_dn] with the
   [repaid]/[repaid'] prefix sums as running accumulators. *)
let d_dn t ~row ~te ~alloc =
  let s = t.s in
  let off = row * t.stride in
  let last = off + t.nlev.(row) - 1 in
  let g = s.(slot_g) and g' = s.(slot_gd) in
  s.(slot_acc) <- -.te *. g' /. (g *. g);
  s.(slot_acc2) <- 0.;
  s.(slot_acc3) <- 0.;
  for i = off to last do
    let xi = t.xs.(i) in
    let m = t.mi.(i) and m' = t.mi_d.(i) in
    s.(slot_acc) <- s.(slot_acc) +. (t.ci_d.(i) *. (xi -. 1.));
    s.(slot_acc) <- s.(slot_acc) +. (m' *. te /. (2. *. xi *. g));
    s.(slot_acc) <- s.(slot_acc) -. (m *. te *. g' /. (2. *. xi *. g *. g));
    s.(slot_acc2) <- s.(slot_acc2) +. (t.ci.(i) *. xi);
    s.(slot_acc3) <- s.(slot_acc3) +. (t.ci_d.(i) *. xi);
    let repaid = s.(slot_acc2) /. (2. *. xi)
    and repaid' = s.(slot_acc3) /. (2. *. xi) in
    s.(slot_acc) <- s.(slot_acc) +. (m' *. (repaid +. alloc +. t.ri.(i)));
    s.(slot_acc) <- s.(slot_acc) +. (m *. (repaid' +. t.ri_d.(i)))
  done;
  s.(slot_acc)

(* Eq. (21) at the row's key scale: [Multilevel.expected_wall_clock]
   with the rollback numerator (T_e/g + sum_{k<=i} C_k x_k, Eq. 18)
   carried as a running prefix. *)
let expected_wall_clock t ~row ~te ~alloc =
  let s = t.s in
  let off = row * t.stride in
  let last = off + t.nlev.(row) - 1 in
  let g = s.(slot_g) in
  s.(slot_acc) <- te /. g;
  s.(slot_acc2) <- te /. g;
  for i = off to last do
    let xi = t.xs.(i) in
    s.(slot_acc) <- s.(slot_acc) +. (t.ci.(i) *. (xi -. 1.));
    s.(slot_acc2) <- s.(slot_acc2) +. (t.ci.(i) *. xi);
    let rollback = s.(slot_acc2) /. (2. *. xi) in
    s.(slot_acc) <- s.(slot_acc) +. (t.mi.(i) *. (rollback +. alloc +. t.ri.(i)))
  done;
  s.(slot_acc)

(* Eq. (25) into the row's [xs], in place: [Multilevel.young_init]. *)
let young_init t ~row ~te =
  let off = row * t.stride in
  let last = off + t.nlev.(row) - 1 in
  let g = t.s.(slot_g) in
  for i = off to last do
    let ci = t.ci.(i) in
    t.xs.(i) <-
      (if ci <= 0. then 1.
       else Float.max 1. (sqrt (t.mi.(i) *. te /. g /. (2. *. ci))))
  done

(* Save the row's iterate to [xs_prev] before a sweep, so that
   afterwards [xs_prev, xs] are two consecutive iterates. *)
let rotate_xs t ~row =
  let off = row * t.stride in
  Array.blit t.xs off t.xs_prev off t.nlev.(row)

(* [Fixed_point.max_abs_diff] of [xs_prev] and [xs] over the row's live
   prefix. *)
let max_abs_diff_xs t ~row =
  let s = t.s in
  let off = row * t.stride in
  let last = off + t.nlev.(row) - 1 in
  s.(slot_acc) <- 0.;
  for i = off to last do
    s.(slot_acc) <- Float.max s.(slot_acc) (Float.abs (t.xs.(i) -. t.xs_prev.(i)))
  done;
  s.(slot_acc)

(* Outer-loop mu drift, [Fixed_point.max_abs_diff prev_mu mu] over the
   row: |previous round's mu - this round's mu|. *)
let mu_drift t ~row =
  let s = t.s in
  let off = row * t.stride in
  let last = off + t.nlev.(row) - 1 in
  s.(slot_acc) <- 0.;
  for i = off to last do
    s.(slot_acc) <- Float.max s.(slot_acc) (Float.abs (t.prev_mu.(i) -. t.mu.(i)))
  done;
  s.(slot_acc)

let commit_mus t ~row =
  let off = row * t.stride in
  Array.blit t.mu off t.prev_mu off t.nlev.(row)

let xs_copy t ~row = Array.sub t.xs (row * t.stride) t.nlev.(row)
