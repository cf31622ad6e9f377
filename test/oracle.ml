(* The plan-equivalence oracle the solver suites share: bitwise and
   relative float comparison, plan equivalence, and the confirmed
   reference plan every accelerated or batched solve is checked
   against. *)

open Ckpt_model

(* Bitwise float equality: NaN = NaN, 0. <> -0. — exactly the contract
   the fastpath promises. *)
let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* Relative closeness that also accepts two identical non-finite values
   (a divergent plan must stay divergent on both paths). *)
let rel_close ?(tol = 1e-9) a b =
  same_bits a b
  || Float.abs (a -. b)
     <= tol *. Float.max 1. (Float.max (Float.abs a) (Float.abs b))

(* Plan equivalence: the accelerated solver must land on the reference's
   plan without matching its trajectory.  [strict_n] (the deterministic
   Table II cases) demands the exact same integer scale; random problems
   additionally tolerate a |dn| <= 0.5 straddle, since an optimum
   sitting within the scale tolerance of a rounding boundary can
   legitimately land on either side. *)
let plan_equiv ?(strict_n = false) (a : Optimizer.plan) (b : Optimizer.plan) =
  let n_ok =
    Float.round a.Optimizer.n = Float.round b.Optimizer.n
    || ((not strict_n) && Float.abs (a.Optimizer.n -. b.Optimizer.n) <= 0.5)
  in
  Array.length a.Optimizer.xs = Array.length b.Optimizer.xs
  && n_ok
  && rel_close a.Optimizer.wall_clock b.Optimizer.wall_clock
  && a.Optimizer.converged = b.Optimizer.converged

(* The plan-equivalence oracle: [solve_reference] resumed from its own
   plan until the integer scale and E(T_w) repeat.  The reference stops
   on the paper's rule, mu drift <= delta, and a free scale can meet it
   by coincidence — N falling while E(T_w) rises leaves
   mu = lambda(N) E(T_w) still — short of its own fixed point, with
   E(T_w) up to ~1e-6 relative off.  Resumed, it moves on to the fixed
   point, which is where the accelerated solver lands; a plan that does
   not repeat within five resumes fails the test. *)
let solve_confirmed ?delta ?fixed_n p =
  let rec confirm (plan : Optimizer.plan) resumes =
    let next = Optimizer.solve_reference ?delta ?fixed_n ~warm:plan p in
    if
      Float.round next.Optimizer.n = Float.round plan.Optimizer.n
      && rel_close next.Optimizer.wall_clock plan.Optimizer.wall_clock
    then next
    else if resumes >= 5 then
      Alcotest.failf
        "reference plan did not repeat within 5 resumes (n %.17g -> %.17g, Ew \
         %h -> %h)"
        plan.Optimizer.n next.Optimizer.n plan.Optimizer.wall_clock
        next.Optimizer.wall_clock
    else confirm next (resumes + 1)
  in
  confirm (Optimizer.solve_reference ?delta ?fixed_n p) 1

let check_equiv_plan ?strict_n msg (a : Optimizer.plan) (b : Optimizer.plan) =
  if not (plan_equiv ?strict_n a b) then
    Alcotest.failf
      "%s: fastpath plan not equivalent to reference (n %.17g vs %.17g, Ew %h \
       vs %h, converged %b vs %b)"
      msg a.Optimizer.n b.Optimizer.n a.Optimizer.wall_clock
      b.Optimizer.wall_clock a.Optimizer.converged b.Optimizer.converged

(* The incomplete-gamma quantile as it stood before its bisection was
   replayed (Special.gamma_p_inv), kept verbatim: P(a, x) with both
   expansions capped at 500 terms and ln Gamma(a) recomputed on every
   evaluation, then 200 plain bisection steps.  The replay must return
   these bits wherever the capped expansions converged. *)
module Gamma_bisection = struct
  let log_gamma = Ckpt_numerics.Special.log_gamma
  let gamma_eps = 1e-14
  let gamma_max_iter = 500

  let gamma_p_series ~a ~x =
    let ap = ref a in
    let sum = ref (1. /. a) in
    let del = ref !sum in
    (try
       for _ = 1 to gamma_max_iter do
         ap := !ap +. 1.;
         del := !del *. x /. !ap;
         sum := !sum +. !del;
         if Float.abs !del < Float.abs !sum *. gamma_eps then raise Exit
       done
     with Exit -> ());
    !sum *. exp ((a *. log x) -. x -. log_gamma a)

  let gamma_q_cf ~a ~x =
    let tiny = 1e-300 in
    let b = ref (x +. 1. -. a) in
    let c = ref (1. /. tiny) in
    let d = ref (1. /. !b) in
    let h = ref !d in
    (try
       for i = 1 to gamma_max_iter do
         let an = -.float_of_int i *. (float_of_int i -. a) in
         b := !b +. 2.;
         d := (an *. !d) +. !b;
         if Float.abs !d < tiny then d := tiny;
         c := !b +. (an /. !c);
         if Float.abs !c < tiny then c := tiny;
         d := 1. /. !d;
         let del = !d *. !c in
         h := !h *. del;
         if Float.abs (del -. 1.) < gamma_eps then raise Exit
       done
     with Exit -> ());
    !h *. exp ((a *. log x) -. x -. log_gamma a)

  let gamma_p ~a ~x =
    assert (a > 0.);
    if x <= 0. then 0.
    else if x < a +. 1. then gamma_p_series ~a ~x
    else 1. -. gamma_q_cf ~a ~x

  let gamma_p_inv ~a ~p =
    assert (a > 0.);
    assert (p >= 0. && p < 1.);
    if p = 0. then 0.
    else begin
      (* Bracket the quantile, then bisect; P is monotone in x and the
         bracket doubles from the mean so few expansions are needed. *)
      let hi = ref (Float.max 1. (2. *. a)) in
      while gamma_p ~a ~x:!hi < p do
        hi := !hi *. 2.
      done;
      let lo = ref 0. in
      for _ = 1 to 200 do
        let mid = 0.5 *. (!lo +. !hi) in
        if gamma_p ~a ~x:mid < p then lo := mid else hi := mid
      done;
      0.5 *. (!lo +. !hi)
    end
end
