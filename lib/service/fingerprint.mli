(** Canonical fingerprints of optimizer problems.

    The plan cache must recognize that two requests describe the same
    {!Ckpt_model.Optimizer.problem} even when their JSON floats carry
    noise below any meaningful precision (a sweep generator printing
    [376179.00000000006], a client re-serializing [0.46] as
    [0.45999999999999996]).  The fingerprint therefore canonicalizes the
    problem — every float rendered with a declared number of significant
    digits, fields emitted in a fixed sorted order — and hashes the
    resulting string with 64-bit FNV-1a.

    Two caveats, both documented invariants rather than bugs:
    - the {e hierarchy order} of levels is preserved, not sorted: level
      position is semantic (cheapest first, last level is the PFS;
      recovery from a level-f failure climbs to a level >= f), so
      permuted hierarchies are genuinely different problems;
    - level [name]s are excluded: they are display labels and do not
      affect the plan. *)

val default_precision : int
(** 9 significant digits — well above the optimizer's [delta = 1e-9]
    convergence threshold, well below double-precision noise. *)

val float_repr : precision:int -> float -> string
(** Canonical rendering: [%.(precision-1)e] scientific notation, byte
    for byte what [Printf] prints, with [0.], [-0.], NaN and infinities
    normalized to fixed spellings.  Requires [precision >= 1].

    For [precision <= 17] the digits come from
    {!Ckpt_json.Float_digits}: an error-free double-double product
    [x 10^s] ([-22 <= s <= 44]) proves them for a normal [x], at the
    default precision with about [1e-36 <= |x| < 1e31], unless it lies
    within [1e-7] of a half-integer.  The C formatter behind [Printf] prints the rest —
    exact ties, subnormals, the far ranges, higher precisions — so the
    bytes are libc's by construction. *)

val canonical : ?precision:int -> Ckpt_model.Optimizer.problem -> string
(** The canonical text form that gets hashed; exposed for tests and
    debugging.  Its floats are written into one buffer as {!float_repr}
    renders them, byte for byte the text the earlier [Printf] /
    [String.concat] rendering produced (tested against it), so keys —
    and the cache entries and snapshots keyed by them — are
    unchanged.  Custom speedups ([Speedup.Custom]) cannot be
    canonicalized and raise [Invalid_argument].  Custom overhead
    baselines are identified by their [h_name] — two distinct custom
    baseline functions sharing a name would collide, so service inputs
    are restricted upstream (the JSON codec only admits ["0"] and
    ["N"]). *)

val of_problem : ?precision:int -> Ckpt_model.Optimizer.problem -> string
(** [of_problem p] is the 16-hex-digit FNV-1a hash of {!canonical}.
    @raise Invalid_argument on [Speedup.Custom]. *)

val hash_string : string -> string
(** 64-bit FNV-1a of an arbitrary string, as 16 lowercase hex digits.
    Deterministic across runs and domains (no [Hashtbl.hash] seeding).
    Equal to [hash_hex (hash_fold hash_init s)]. *)

val hash_init : int64
(** The FNV-1a offset basis — the accumulator before any byte. *)

val hash_fold : int64 -> string -> int64
(** Fold a piece into a running FNV-1a accumulator.  Folding
    [s1, s2, ...] in order equals hashing their concatenation, so hot
    paths can key on composite strings without building them. *)

val hash_hex : int64 -> string
(** Render an accumulator as 16 lowercase hex digits ([%016Lx]). *)
