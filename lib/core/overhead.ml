module Least_squares = Ckpt_numerics.Least_squares

type t = { eps : float; alpha : float; h : Scale_fn.t; h_name : string }

let identity_h = Scale_fn.linear ~slope:1. ()

(* H = 0, shared by every constant law as [identity_h] is by the linear
   ones: a parsed problem builds eight laws. *)
let zero_h = Scale_fn.const 0.

let check_eps name eps =
  if not (Float.is_finite eps && eps >= 0.) then
    invalid_arg (Printf.sprintf "Overhead.%s: cost %g must be finite and >= 0" name eps)

let check_alpha name alpha =
  if not (Float.is_finite alpha) then
    invalid_arg (Printf.sprintf "Overhead.%s: alpha %g must be finite" name alpha)

let constant c =
  check_eps "constant" c;
  { eps = c; alpha = 0.; h = zero_h; h_name = "0" }

let linear ~eps ~alpha =
  check_eps "linear" eps;
  check_alpha "linear" alpha;
  { eps; alpha; h = identity_h; h_name = "N" }

let custom ~eps ~alpha ~h ~h_name =
  check_eps "custom" eps;
  check_alpha "custom" alpha;
  { eps; alpha; h; h_name }

(* [Scale_fn.eval] dispatches on the law's shape — bit-identical to the
   closure call it replaces, but constant/affine laws (every law the
   paper fits) evaluate without closure indirection. *)
let cost t n = t.eps +. (t.alpha *. Scale_fn.eval t.h n)
let cost' t n = t.alpha *. Scale_fn.eval' t.h n

let scaled t factor =
  if factor <= 0. then invalid_arg "Overhead.scaled: non-positive factor";
  { t with eps = t.eps *. factor; alpha = t.alpha *. factor }

let law t =
  Scale_fn.opaque ~f:(fun n -> cost t n) ~f':(fun n -> cost' t n)

let fit ?(h = identity_h) ?(h_name = "N") ?(snap = 0.) ~scales ~costs () =
  let { Least_squares.coefficients; _ } =
    Least_squares.fit_affine_in ~h:h.Scale_fn.f ~xs:scales ~ys:costs
  in
  let eps = coefficients.(0) and alpha = coefficients.(1) in
  if Float.abs alpha < snap || alpha = 0. then
    (* Classified as scale-independent: the best constant fit is the mean
       (this is how the paper's eps_1..3 come out as the column means). *)
    constant (Ckpt_numerics.Stats.mean costs)
  else begin
    (* Measured overheads can fit with a slightly negative intercept;
       clamp, the model requires non-negative costs. *)
    let eps = Float.max 0. eps in
    custom ~eps ~alpha ~h ~h_name
  end

let pp ppf t =
  if t.alpha = 0. then Format.fprintf ppf "%g" t.eps
  else Format.fprintf ppf "%g + %g*%s" t.eps t.alpha t.h_name
