(** Application speedup curves [g(N)].

    The parallel execution time of an application with single-core
    productive time [T_e] on [N] cores is [f(T_e, N) = T_e / g(N)] (paper
    Section II).  The optimizer only needs [g], its derivative and — for
    nonlinear curves — the ideal scale [N_star] where [g] peaks, because
    the optimal scale can never exceed it (paper Section III-C.2). *)

(** Constructor form, kept for introspection and serialization. *)
type form =
  | Linear of { kappa : float }
  | Quadratic of { kappa : float; n_star : float }
  | Amdahl of { serial_fraction : float; peak : float }
  | Gustafson of { serial_fraction : float; peak : float }
  | Custom of { name : string }

type t = {
  form : form;
  law : Scale_fn.t;  (** [g] and [g'] *)
  n_ideal : float option;
      (** the scale [N_star] maximizing [g], when the curve has one *)
}

val linear : kappa:float -> t
(** [g(N) = kappa * N] — ideal strong scaling (no peak). *)

val quadratic : kappa:float -> n_star:float -> t
(** Paper Eq. (12): [g(N) = -kappa/(2 n_star) N^2 + kappa N]; passes
    through the origin with slope [kappa] and peaks at [n_star] with
    [g(n_star) = kappa * n_star / 2].  Requires both positive. *)

val amdahl : serial_fraction:float -> peak:float -> t
(** Amdahl's law [g(N) = 1 / (s + (1 - s)/N)] truncated at [peak] (the law
    itself never decreases, so the search bound must be supplied).
    Requires [0 <= serial_fraction < 1]. *)

val gustafson : serial_fraction:float -> peak:float -> t
(** Gustafson–Barsis scaled speedup [g(N) = s + (1 - s) N], bounded by
    [peak] for the optimizer. *)

val of_quadratic_fit : kappa:float -> quad_coefficient:float -> t
(** Builds the curve from the coefficients of a least-squares fit
    [g(N) ~ kappa N + quad_coefficient N^2] (see
    {!Ckpt_numerics.Least_squares.polyfit_through_origin}); requires
    [quad_coefficient < 0] so that a peak exists. *)

val eval : t -> float -> float
(** [eval t n] is [g(N)].  Requires [n > 0]. *)

val eval' : t -> float -> float

val productive_time : t -> te:float -> n:float -> float
(** [productive_time t ~te ~n] is [f(T_e, N) = te / g(n)]. *)

val search_upper_bound : t -> default:float -> float
(** The upper end of the scale-search interval: [n_ideal] when the curve
    has a peak, [default] otherwise. *)

val of_form : form -> t
(** Rebuild a speedup from its form.  @raise Invalid_argument on
    [Custom]. *)

val custom : name:string -> law:Scale_fn.t -> n_ideal:float option -> t
(** A speedup from raw value/derivative functions ([form = Custom];
    not serializable). *)

val name : t -> string
(** A label such as ["quadratic(kappa=0.5, n_star=1e+06)"], formatted
    from the form on each call; a custom speedup's own name. *)

val pp : Format.formatter -> t -> unit
