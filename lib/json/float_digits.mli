(** libc's fixed-precision decimal digits of a double, without libc.

    [printf]'s [%.{p}g] and [%.{p-1}e] print the p-digit integer
    N = round(|x| 10^s) for the scale s with 10^(p-1) <= N < 10^p.
    {!scale} and {!digits} compute s and N from an error-free
    double-double product x 10^s (10^s from the exact doubles
    10^0..10^22, so -22 <= s <= 44) and prove the rounding, or give
    up: where the product lies within 1e-7 of a half-integer (exact
    decimal ties among them), and for zero, subnormal, non-finite or
    out-of-range [x].  A caller that falls back to libc there prints
    libc's bytes for every float. *)

val no_scale : int
(** What {!scale} returns when it cannot prove the digits. *)

val scale : int -> float -> int
(** [scale p x], for [1 <= p <= 17]: the [s] for which [|x| 10^s] rounds
    to a p-digit integer, decade carries included, or {!no_scale}.
    [p] outside 1..17 gives {!no_scale}. *)

val digits : float -> int -> int
(** [digits x s] is [round(|x| 10^s)] as an integer: the p digits at a
    scale {!scale} returned.  -1 where the product cannot prove it. *)

val reads_back : float -> int -> int -> bool
(** [reads_back x n s]: whether the decimal [n 10^-s] reads back as
    [|x|] — whether the double nearest it is [|x|].  For [n < 2^53]
    and [|s| <= 22] one correctly rounded multiplication or division
    decides it exactly; elsewhere [float_of_string] does. *)

val libc : string -> float -> string
(** [libc fmt x] is [caml_format_float], the C formatter behind
    [Printf], for [x] with the conversion [fmt] (e.g. ["%.17g"]): the
    branch for the digits {!scale} cannot prove.  Each call is
    counted. *)

val fallbacks : unit -> int
(** Calls of {!libc} so far in this process, from any domain. *)

val add_g : Buffer.t -> int -> float -> int -> int -> unit
(** [add_g buf p x n s] appends [x] as [Printf.sprintf "%.{p}g"] prints
    it, given its digits [n] at scale [s]. *)

val add_e : Buffer.t -> int -> float -> int -> int -> unit
(** [add_e buf p x n s] appends [x] as [Printf.sprintf "%.{p-1}e"]
    prints it, given its digits [n] at scale [s]. *)
