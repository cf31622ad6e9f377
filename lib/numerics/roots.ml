type outcome = { root : float; iterations : int; f_evals : int }

exception No_bracket of string

let sign x = if x > 0. then 1 else if x < 0. then -1 else 0

let check_bracket name flo fhi =
  if sign flo * sign fhi > 0 then
    raise (No_bracket (Printf.sprintf "%s: f(lo)=%g and f(hi)=%g have the same sign" name flo fhi))

let bisect_gen ~tol_x ~max_iter ~f ~lo ~hi =
  let flo = f lo and fhi = f hi in
  check_bracket "bisect" flo fhi;
  if flo = 0. then { root = lo; iterations = 0; f_evals = 2 }
  else if fhi = 0. then { root = hi; iterations = 0; f_evals = 2 }
  else begin
    let rec loop lo hi flo iter =
      let mid = 0.5 *. (lo +. hi) in
      let fmid = f mid in
      if hi -. lo < tol_x || fmid = 0. || iter >= max_iter then
        { root = mid; iterations = iter; f_evals = iter + 3 }
      else if sign flo * sign fmid <= 0 then loop lo mid flo (iter + 1)
      else loop mid hi fmid (iter + 1)
    in
    loop lo hi flo 0
  end

let bisect ?(tol_x = 1e-9) ?(max_iter = 200) ~f ~lo ~hi () =
  bisect_gen ~tol_x ~max_iter ~f ~lo ~hi

let bisect_integer ~f ~lo ~hi () = bisect_gen ~tol_x:0.5 ~max_iter:200 ~f ~lo ~hi

(* Integer bisection with an ITP front end (Oliveira & Takahashi, "An
   enhancement of the bisection method average performance preserving
   minmax optimality", 2020): regula-falsi interpolation truncated
   toward the midpoint and projected onto a shrinking minmax envelope,
   so smooth brackets converge superlinearly while the worst case stays
   within [n0 = 1] probe of the plain bisection budget.

   The refined bracket is then used to *replay* the exact
   [bisect_integer] probe sequence: probe signs outside the refined
   bracket are inferred (f has its endpoint sign there), probes inside
   it are evaluated for real.  Whenever f has a single sign change on
   [lo, hi] — true for Eq. 24's d E(T_w)/dn on the convex region the
   solver brackets — every inferred sign equals the sign bisection
   would have measured, and the returned root is bit-identical to
   [bisect_integer]'s at a fraction of the evaluations.  With multiple
   sign changes the result is still a valid bracketed root, just
   possibly a different one than plain bisection picks.

   [inner] is a refined bracket the caller already holds (a previous
   root's neighbourhood): phase 1 starts from it instead of [lo, hi],
   the endpoint signs are read off it, and the replay still runs over
   [lo, hi], so the root stays on the same bisection lattice. *)
let itp_integer ?flo ?fhi ?inner ~f ~lo ~hi () =
  let evals = ref 0 in
  let feval x = incr evals; f x in
  (* [a0, b0]: the bracket phase 1 starts from, with its end values. *)
  let a0, ya0, b0, yb0 =
    match inner with
    | None ->
        let flo = match flo with Some v -> v | None -> feval lo in
        let fhi = match fhi with Some v -> v | None -> feval hi in
        check_bracket "itp" flo fhi;
        (lo, flo, hi, fhi)
    | Some (a, fa, b, fb) ->
        let agrees known y =
          match known with Some v -> sign v = sign y | None -> true
        in
        if not (lo <= a && a < b && b <= hi) then
          invalid_arg "Roots.itp_integer: inner bracket not inside [lo, hi]";
        if sign fa * sign fb >= 0 || not (agrees flo fa && agrees fhi fb) then
          invalid_arg "Roots.itp_integer: inner bracket signs do not match";
        (a, fa, b, fb)
  in
  (* Zero end values only occur at [lo, hi]: an inner bracket has none. *)
  if ya0 = 0. then { root = lo; iterations = 0; f_evals = !evals }
  else if yb0 = 0. then { root = hi; iterations = 0; f_evals = !evals }
  else begin
    let sa = sign ya0 and sb = sign yb0 in
    (* Phase 1: ITP-refine [a0, b0] down to a half-width of [eps].
       0.0625 leaves the refined bracket narrower than any bisection
       cell (>= 0.25 wide), so the replay below rarely needs more than
       one real probe.  An inner bracket at most one unit wide skips
       it: the replay's own interior probes settle such a bracket in
       fewer evaluations than ITP spends refining it. *)
    let eps = 0.0625 in
    let a = ref a0 and b = ref b0 in
    let ya = ref ya0 and yb = ref yb0 in
    (* sign-normalize so the function increases across the bracket *)
    let s = if sa < 0 then 1. else -1. in
    (* The ITP paper's recommended truncation constant.  Because delta
       scales with the SQUARE of the current width, the midpoint pull is
       strong early (where interpolants are least trustworthy) and
       negligible once the bracket has narrowed — no regime switching
       needed. *)
    let k1 = 0.2 /. (b0 -. a0) in
    (* n0 = 6 slack probes over the bisection count: the minmax envelope
       must leave the interpolant room to act after the first few probes
       spent balancing a badly skewed bracket — with the paper's n0 = 1
       the envelope radius collapses to zero after one non-midpoint
       probe and every later step degenerates to bisection. *)
    let n_max =
      if Option.is_some inner && b0 -. a0 <= 1. then 0
      else
        let w = (b0 -. a0) /. (2. *. eps) in
        (if w <= 1. then 0 else int_of_float (Float.ceil (Float.log w /. Float.log 2.))) + 6
    in
    let j = ref 0 in
    let zero_hit = ref false in
    (* Illinois weights: when the same endpoint is replaced twice in a
       row (the one-sided stall of regula falsi on a flat-vs-steep
       bracket), the stale opposite value is halved for interpolation
       purposes, pulling the next probe past the root instead of
       crawling toward it.  The trigger is repeat-only — alternating
       updates keep both weights at 1, so a well-behaved bracket
       interpolates on the raw values — and the weights never touch the
       true values used for sign bookkeeping. *)
    let ia = ref 1. and ib = ref 1. in
    let last_side = ref 0 in
    while (not !zero_hit) && !b -. !a > 2. *. eps && !j < n_max do
      let w = !b -. !a in
      let x_half = 0.5 *. (!a +. !b) in
      let r = Float.max 0. ((eps *. Float.pow 2. (Float.of_int (n_max - !j))) -. (0.5 *. w)) in
      let ya' = s *. !ya and yb' = s *. !yb in
      (* Candidate probe, projected into the minmax radius r around the
         midpoint.  Eq. 24-style curves vary over many orders of
         magnitude across the bracket (|f| ~ C/x^k on one branch), where
         any value interpolation is hopeless: while the endpoint
         magnitudes are skewed by > 1e3 on a positive bracket, probe the
         geometric mean instead — log-space bisection balances the
         magnitudes in a handful of probes.  With magnitudes within a
         factor 30 the curve is locally close to affine and the classic
         linear regula falsi converges superlinearly on its own (log-log
         coordinates would distort genuinely linear functions); in the
         band between, interpolate in log-log coordinates (u = ln x
         against a signed log1p of the values scaled by their geometric
         mean), which is nearly affine for power-law branches and
         reduces to the plain regula falsi point near the root
         (log1p(t) ~ t on a narrow bracket).  Either way the minmax
         projection bounds the worst case. *)
      (* Value imbalance only signals a power-law branch while the
         bracket is wide in log space: once [b/a] is close to 1 the
         function is affine over the bracket and one endpoint value
         shrinking to zero (the root being near it) is the NORMAL
         regula-falsi endgame, not skew. *)
      (* Active Illinois weights mean a one-sided stall is being broken:
         the magnitude imbalance is then an artifact of one endpoint
         converging while the other is stuck, not a power-law signature,
         so let the weighted interpolation finish the job. *)
      let balancing = !ia < 1. || !ib < 1. in
      let wide = (not balancing) && !b > 2. *. !a in
      let skewed =
        !a > 0. && wide && (yb' < 1e-3 *. -.ya' || -.ya' < 1e-3 *. yb')
      in
      let decades =
        !a > 0. && wide && (yb' > 30. *. -.ya' || -.ya' > 30. *. yb')
      in
      let delta = k1 *. w *. w in
      let x_t =
        if skewed then Float.sqrt (!a *. !b)
        else begin
          let x_f =
            if decades then begin
              let sv = Float.sqrt (Float.abs !ya *. Float.abs !yb) in
              let va = -.Float.log1p (-.ya' /. sv)
              and vb = Float.log1p (yb' /. sv) in
              let ua = Float.log !a and ub = Float.log !b in
              Float.exp (((vb *. ua) -. (va *. ub)) /. (vb -. va))
            end
            else begin
              (* Illinois-weighted endpoint values cure the one-sided
                 stall; the weights are 1 unless a stall is under way,
                 so a well-behaved bracket interpolates classically. *)
              let yaw = ya' *. !ia and ybw = yb' *. !ib in
              ((ybw *. !a) -. (yaw *. !b)) /. (ybw -. yaw)
            end
          in
          let sigma = if x_half -. x_f > 0. then 1. else -1. in
          if delta <= Float.abs (x_half -. x_f) then x_f +. (sigma *. delta)
          else x_half
        end
      in
      let sigma = if x_half -. x_t > 0. then 1. else -1. in
      let x_itp = if Float.abs (x_t -. x_half) <= r then x_t else x_half -. (sigma *. r) in
      (* clamp strictly inside to guarantee progress under rounding *)
      let x_itp = Float.max (!a +. (0.25 *. eps)) (Float.min (!b -. (0.25 *. eps)) x_itp) in
      if x_itp <= !a || x_itp >= !b then (
        (* bracket too narrow to split under floating point: stop refining *)
        j := n_max)
      else begin
        let y = feval x_itp in
        if y = 0. then begin
          (* exact root: collapse the refined bracket onto it *)
          a := x_itp;
          b := x_itp;
          zero_hit := true
        end
        else if sign y = sa then begin
          a := x_itp; ya := y; ia := 1.;
          ib := (if !last_side = 1 then 0.5 *. !ib else 1.);
          last_side := 1
        end
        else begin
          b := x_itp; yb := y; ib := 1.;
          ia := (if !last_side = -1 then 0.5 *. !ia else 1.);
          last_side := -1
        end;
        incr j
      end
    done;
    (* Phase 2: replay bisect_integer's float recurrence on the original
       bracket, inferring probe signs by position relative to [!a, !b]. *)
    let max_iter = 200 in
    let rec replay rlo rhi slo iter =
      let mid = 0.5 *. (rlo +. rhi) in
      if rhi -. rlo < 0.5 || iter >= max_iter then
        (* plain bisection evaluates f here too, though the value
           cannot change the root *)
        { root = mid; iterations = iter; f_evals = !evals }
      else if !zero_hit && mid = !a then
        (* bisection would have measured f mid = 0 and stopped here *)
        { root = mid; iterations = iter; f_evals = !evals }
      else begin
        let smid =
          if mid <= !a then sa
          else if mid >= !b then sb
          else begin
            let fm = feval mid in
            if fm = 0. then 0
            else begin
              (* a real probe inside the refined bracket also tightens it *)
              if sign fm = sa then (a := mid; ya := fm) else (b := mid; yb := fm);
              sign fm
            end
          end
        in
        if smid = 0 then { root = mid; iterations = iter; f_evals = !evals }
        else if slo * smid <= 0 then replay rlo mid slo (iter + 1)
        else replay mid rhi smid (iter + 1)
      end
    in
    replay lo hi sa 0
  end

let minimize_golden ?(tol = 1e-9) ?(max_iter = 500) ~f ~lo ~hi () =
  let phi = (sqrt 5. -. 1.) /. 2. in
  let rec loop a b x1 x2 f1 f2 iter =
    if b -. a < tol || iter >= max_iter then
      { root = 0.5 *. (a +. b); iterations = iter; f_evals = iter + 2 }
    else if f1 < f2 then begin
      let b = x2 and x2 = x1 and f2 = f1 in
      let x1 = b -. (phi *. (b -. a)) in
      loop a b x1 x2 (f x1) f2 (iter + 1)
    end
    else begin
      let a = x1 and x1 = x2 and f1 = f2 in
      let x2 = a +. (phi *. (b -. a)) in
      loop a b x1 x2 f1 (f x2) (iter + 1)
    end
  in
  let x1 = hi -. (phi *. (hi -. lo)) in
  let x2 = lo +. (phi *. (hi -. lo)) in
  loop lo hi x1 x2 (f x1) (f x2) 0
