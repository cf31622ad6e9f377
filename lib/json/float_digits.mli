(** Decimal <-> double conversions that libc would make, without libc
    where they can be proved.

    Printing: [printf]'s [%.{p}g] and [%.{p-1}e] print the p-digit
    integer N = round(|x| 10^s) for the scale s with
    10^(p-1) <= N < 10^p.  {!scale} and {!digits} compute s and N from
    an error-free double-double product x 10^s (10^s from the exact
    doubles 10^0..10^22, so -22 <= s <= 44) and prove the rounding, or
    give up: where the product lies within 1e-7 of a half-integer (exact
    decimal ties among them), and for zero, subnormal, non-finite or
    out-of-range [x].  A caller that falls back to libc there prints
    libc's bytes for every float.

    Reading: {!read} gives the double [float_of_string] gives for a
    decimal span, from one correctly rounded operation on exact doubles
    where the significand has at most 2^53 and the exponent at most 22
    in magnitude, and from the same exact powers with error-free [fma]
    remainders for significands of 16 to 19 digits; strtod reads the
    rest.  Both directions count their calls of libc in {!fallbacks}. *)

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
(** Calls of libc so far in this process, from any domain: {!libc}'s,
    and the spans {!read} hands to strtod. *)

val add_g : Buffer.t -> int -> float -> int -> int -> unit
(** [add_g buf p x n s] appends [x] as [Printf.sprintf "%.{p}g"] prints
    it, given its digits [n] at scale [s]. *)

val add_e : Buffer.t -> int -> float -> int -> int -> unit
(** [add_e buf p x n s] appends [x] as [Printf.sprintf "%.{p-1}e"]
    prints it, given its digits [n] at scale [s]. *)

val read : string -> int -> int -> float
(** [read s start stop] is [float_of_string (String.sub s start (stop -
    start))], without the substring: the same double (its sign, [-0.],
    infinities and zeros from out-of-range exponents included), and
    [Failure "float_of_string"] for the spans [float_of_string] refuses.
    A span of digits, signs, '.', 'e' and 'E' is read here: as a
    correctly rounded product or quotient of exact doubles when its
    significand is at most 2^53 and its decimal exponent within 22 of
    zero, and for significands up to 2^62 (16 to 19 digits) when
    error-free [fma] remainders place the decimal clear of the midpoint
    between two doubles.  Other spans — longer significands, larger
    exponents, near-ties, or characters strtod may still take (a space,
    ['_'], hex or nan/inf letters) — are read by strtod and counted in
    {!fallbacks}.
    @raise Invalid_argument when [start..stop] is not a span of [s]. *)
