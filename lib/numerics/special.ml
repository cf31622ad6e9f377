(* Lanczos approximation with g = 7, n = 9 coefficients. *)

let lanczos =
  [| 0.99999999999980993; 676.5203681218851; -1259.1392167224028;
     771.32342877765313; -176.61502916214059; 12.507343278686905;
     -0.13857109526572012; 9.9843695780195716e-6; 1.5056327351493116e-7 |]

let rec log_gamma x =
  assert (x > 0.);
  if x < 0.5 then
    (* Reflection: Gamma(x) Gamma(1-x) = pi / sin(pi x). *)
    log (Float.pi /. sin (Float.pi *. x)) -. log_gamma (1. -. x)
  else begin
    let x = x -. 1. in
    let a = ref lanczos.(0) in
    let t = x +. 7.5 in
    for i = 1 to 8 do
      a := !a +. (lanczos.(i) /. (x +. float_of_int i))
    done;
    (0.5 *. log (2. *. Float.pi)) +. ((x +. 0.5) *. log t) -. t +. log !a
  end

let gamma x = exp (log_gamma x)

let factorial n =
  assert (n >= 0);
  if n < 2 then 1.
  else begin
    let acc = ref 1. in
    for i = 2 to n do
      acc := !acc *. float_of_int i
    done;
    !acc
  end

(* Regularized incomplete gamma functions, series + continued-fraction
   split at x = a + 1 so each expansion is used where it converges
   fastest.  Both expansions return the factor left once the common
   prefactor x^a e^-x / Gamma(a) is taken out, so a caller that holds
   ln Gamma(a) pays for it once per a rather than once per x. *)

let gamma_eps = 1e-14

(* Term cap.  Near x = a the series needs ~8 sqrt a terms to reach
   [gamma_eps] and the continued fraction ~0.6 sqrt a, so a fixed cap
   stops both short for large a (the series needs 2,300 terms at
   a = 1e5); below a ~ 4,000 neither comes near 500.  Past a ~ 1e10 the
   prefactor's own rounding dominates, so the cap stops growing. *)
let max_terms a = 500 + (10 * int_of_float (Float.ceil (Float.sqrt (Float.min a 1e10))))

(* The series S = sum_n x^n / (a (a+1) ... (a+n)): P(a, x) = S x^a e^-x / Gamma(a). *)
let p_series ~a ~x =
  let ap = ref a in
  let sum = ref (1. /. a) in
  let del = ref !sum in
  (try
     for _ = 1 to max_terms a do
       ap := !ap +. 1.;
       del := !del *. x /. !ap;
       sum := !sum +. !del;
       if Float.abs !del < Float.abs !sum *. gamma_eps then raise Exit
     done
   with Exit -> ());
  !sum

(* The Lentz continued fraction C: Q(a, x) = C x^a e^-x / Gamma(a). *)
let q_fraction ~a ~x =
  let tiny = 1e-300 in
  let b = ref (x +. 1. -. a) in
  let c = ref (1. /. tiny) in
  let d = ref (1. /. !b) in
  let h = ref !d in
  (try
     for i = 1 to max_terms a do
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
  !h

(* ln (x^a e^-x / Gamma(a)), given [lga] = ln Gamma(a). *)
let log_prefactor ~a ~lga ~x = (a *. log x) -. x -. lga

let gamma_p_lga ~a ~lga ~x =
  if x <= 0. then 0.
  else if x < a +. 1. then p_series ~a ~x *. exp (log_prefactor ~a ~lga ~x)
  else 1. -. (q_fraction ~a ~x *. exp (log_prefactor ~a ~lga ~x))

let gamma_p ~a ~x =
  assert (a > 0.);
  gamma_p_lga ~a ~lga:(log_gamma a) ~x

let gamma_q ~a ~x = 1. -. gamma_p ~a ~x

(* z with Phi(z) = p to ~4.5e-4 (Abramowitz & Stegun 26.2.23). *)
let normal_quantile p =
  let t = sqrt (-2. *. log (Float.min p (1. -. p))) in
  let z =
    t
    -. (2.515517 +. (t *. (0.802853 +. (t *. 0.010328))))
       /. (1. +. (t *. (1.432788 +. (t *. (0.189269 +. (t *. 0.001308))))))
  in
  if p < 0.5 then -.z else z

(* Where the Newton search starts.  The series' leading term
   P ~ x^a / Gamma(a + 1) gives the far lower tail; above a = 1 the
   Wilson-Hilferty cube-root normal approximation covers the rest, and
   for a <= 1 the exponential upper tail does. *)
let quantile_guess ~a ~lga ~p =
  let leading = exp ((log p +. log a +. lga) /. a) in
  if a > 1. then begin
    let c = 1. -. (1. /. (9. *. a)) +. (normal_quantile p /. (3. *. sqrt a)) in
    Float.max leading (a *. c *. c *. c)
  end
  else if leading < 1. then leading
  else 1. -. log1p (-.p)

(* The quantile is the point the plain bisection below lands on: grow
   [0, top] by doubling from max(1, 2a), then halve it 200 times on the
   test P(mid) < p.  Running those halvings costs 200 evaluations of P,
   so the same lattice is replayed with most of its tests inferred:

   - Halving stops once the midpoint equals an endpoint.  P(lo) < p and
     P(hi) >= p were both measured, so no later step can move either
     end; that takes ~54 steps, and 200 still bound it (for a < 1 or a
     tiny p the lattice can need more, and the result must match there).
   - A safeguarded Newton search in u = ln x on ln(P/p) (ln(Q_p/Q) on
     the continued-fraction side, Q_p being the Q below which 1 - Q
     rounds to at least p) finds the root x*.  In u the derivative of
     either log ratio is 1/S or 1/C, already at hand, and both tails are
     close to linear.
   - The tests at x*(1 - 1e-9) and x*(1 + 1e-9) are measured.  When they
     bracket the root, a midpoint at or below the lower end moves lo
     and one at or above the upper end moves hi without an evaluation;
     only the ~24 midpoints between them are evaluated.  The ends sit
     far outside the ulp-level noise of P near x*, where monotonicity
     could not be trusted (Newton's own iterates sit inside it, and a
     1e-11 bracket is too narrow at a > 1e5).  When they do not
     bracket it, every midpoint is evaluated.
   - A root below the smallest midpoint the lattice can reach,
     top / 2^200, is confirmed by a single test there. *)
let gamma_p_inv_outcome ~a ~p =
  assert (a > 0.);
  assert (p >= 0. && p < 1.);
  if p = 0. then { Roots.root = 0.; iterations = 0; f_evals = 0 }
  else begin
    let lga = log_gamma a in
    let evals = ref 0 in
    let below x =
      incr evals;
      gamma_p_lga ~a ~lga ~x < p
    in
    let lo_n = ref 0. and top = ref (Float.max 1. (2. *. a)) in
    while below !top do
      lo_n := !top;
      top := !top *. 2.
    done;
    let top = !top in
    let lattice_min = Float.ldexp top (-200) in
    let hi_n = ref top in
    (* A Newton iterate that leaves the bracket (lo_n, hi_n) is replaced
       by the bracket's middle. *)
    let inside x =
      if x > !lo_n && x < !hi_n then x
      else if !lo_n > 0. then sqrt (!lo_n *. !hi_n)
      else 0.5 *. !hi_n
    in
    let log_p = log p in
    let log_q = log ((1. -. p) +. (0.5 *. (p -. Float.pred p))) in
    let rec newton x iter =
      incr evals;
      let lp = log_prefactor ~a ~lga ~x in
      let r, t =
        if x < a +. 1. then
          let s = p_series ~a ~x in
          (log s +. lp -. log_p, s)
        else
          let c = q_fraction ~a ~x in
          (log_q -. log c -. lp, c)
      in
      if r < 0. then lo_n := x else hi_n := x;
      let du = -.r *. t in
      let next = x *. exp du in
      if Float.abs du <= 1e-8 || next <= lattice_min || iter >= 12 then next
      else newton (inside next) (iter + 1)
    in
    let x0 = quantile_guess ~a ~lga ~p in
    let root = if x0 <= lattice_min then x0 else newton (inside x0) 1 in
    let bracket =
      if root *. (1. +. 1e-9) < lattice_min then
        if below lattice_min then None else Some (0., lattice_min)
      else if root > 0. && Float.is_finite root then begin
        let bl = root *. (1. -. 1e-9) and bh = root *. (1. +. 1e-9) in
        if below bl && not (below bh) then Some (bl, bh) else None
      end
      else None
    in
    let rec replay lo hi i =
      let mid = 0.5 *. (lo +. hi) in
      if i = 200 || mid = lo || mid = hi then
        { Roots.root = mid; iterations = i; f_evals = !evals }
      else begin
        let up =
          match bracket with
          | Some (bl, _) when mid <= bl -> true
          | Some (_, bh) when mid >= bh -> false
          | _ -> below mid
        in
        if up then replay mid hi (i + 1) else replay lo mid (i + 1)
      end
    in
    replay 0. top 0
  end

let gamma_p_inv ~a ~p = (gamma_p_inv_outcome ~a ~p).Roots.root
