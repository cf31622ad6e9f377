type form =
  | Linear of { kappa : float }
  | Quadratic of { kappa : float; n_star : float }
  | Amdahl of { serial_fraction : float; peak : float }
  | Gustafson of { serial_fraction : float; peak : float }
  | Custom of { name : string }

type t = { form : form; law : Scale_fn.t; n_ideal : float option }

let linear ~kappa =
  assert (kappa > 0.);
  { form = Linear { kappa };
    law = Scale_fn.linear ~slope:kappa ();
    n_ideal = None }

let quadratic ~kappa ~n_star =
  assert (kappa > 0. && n_star > 0.);
  let a = -.kappa /. (2. *. n_star) in
  { form = Quadratic { kappa; n_star };
    law =
      Scale_fn.opaque
        ~f:(fun n -> (a *. n *. n) +. (kappa *. n))
        ~f':(fun n -> (2. *. a *. n) +. kappa);
    n_ideal = Some n_star }

(* Amdahl's law, truncated at [peak]. *)
let amdahl ~serial_fraction ~peak =
  assert (serial_fraction >= 0. && serial_fraction < 1. && peak > 0.);
  let s = serial_fraction in
  { form = Amdahl { serial_fraction; peak };
    law =
      Scale_fn.opaque
        ~f:(fun n -> 1. /. (s +. ((1. -. s) /. n)))
        ~f':(fun n ->
          let denom = s +. ((1. -. s) /. n) in
          (1. -. s) /. (n *. n *. denom *. denom));
    n_ideal = Some peak }

(* Gustafson-Barsis scaled speedup, bounded by [peak]. *)
let gustafson ~serial_fraction ~peak =
  assert (serial_fraction >= 0. && serial_fraction < 1. && peak > 0.);
  let s = serial_fraction in
  { form = Gustafson { serial_fraction; peak };
    law = Scale_fn.linear ~intercept:s ~slope:(1. -. s) ();
    n_ideal = Some peak }

(* The constructor each form came from. *)
let of_form = function
  | Linear { kappa } -> linear ~kappa
  | Quadratic { kappa; n_star } -> quadratic ~kappa ~n_star
  | Amdahl { serial_fraction; peak } -> amdahl ~serial_fraction ~peak
  | Gustafson { serial_fraction; peak } -> gustafson ~serial_fraction ~peak
  | Custom _ -> invalid_arg "Speedup.of_form: Custom is not reconstructible"

let custom ~name ~law ~n_ideal = { form = Custom { name }; law; n_ideal }

let of_quadratic_fit ~kappa ~quad_coefficient =
  assert (kappa > 0. && quad_coefficient < 0.);
  (* g(N) = kappa N + a N^2 with a = -kappa / (2 n_star). *)
  let n_star = -.kappa /. (2. *. quad_coefficient) in
  quadratic ~kappa ~n_star

let eval t n =
  assert (n > 0.);
  t.law.Scale_fn.f n

let eval' t n = t.law.Scale_fn.f' n

let productive_time t ~te ~n =
  assert (te >= 0.);
  let g = eval t n in
  assert (g > 0.);
  te /. g

let search_upper_bound t ~default =
  match t.n_ideal with Some n -> n | None -> default

(* Built when asked for: a parsed problem's speedup is never printed, and
   formatting its name in the constructor cost more than the rest of
   the parse. *)
let name t =
  match t.form with
  | Linear { kappa } -> Printf.sprintf "linear(kappa=%g)" kappa
  | Quadratic { kappa; n_star } -> Printf.sprintf "quadratic(kappa=%g, n_star=%g)" kappa n_star
  | Amdahl { serial_fraction; _ } -> Printf.sprintf "amdahl(s=%g)" serial_fraction
  | Gustafson { serial_fraction; _ } -> Printf.sprintf "gustafson(s=%g)" serial_fraction
  | Custom { name } -> name

let pp ppf t = Format.pp_print_string ppf (name t)
