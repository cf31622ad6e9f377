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
