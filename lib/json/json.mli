(** A small, dependency-free JSON implementation (RFC 8259 subset).

    Used to persist optimizer problems and plans between the CLI tools
    (`ckpt-opt --output plan.json`, `ckpt-simulate --plan plan.json`) and
    to emit machine-readable experiment results.  Supports the full JSON
    value model; numbers are parsed as floats (fine for this library's
    payloads: seconds, counts, rates).

    The parser allocates only the tree it returns: characters are
    tested in place, a string without escapes is one [String.sub], and
    a number is read from its span by {!Float_digits.read}, which gives
    the double [float_of_string] gives.  Both directions of number
    conversion live in {!Float_digits}. *)

type t =
  | Null
  | Bool of bool
  | Number of float
  | String of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of { position : int; message : string }

val max_depth : int
(** Maximum container nesting the parser accepts (512).  Deeper input —
    e.g. an adversarial ["[[[[..."] that would otherwise overflow the
    stack of the recursive-descent parser — fails with {!Parse_error}
    ("nesting too deep") instead. *)

val parse : string -> t
(** @raise Parse_error on malformed input (position is a byte offset) or
    nesting deeper than {!max_depth}.  Positions and messages are part
    of the protocol (clients see them in [parse] errors) and are pinned
    by tests. *)

val parse_result : string -> (t, string) result
(** Like {!parse}, with the error rendered as a message. *)

val to_string : ?pretty:bool -> t -> string
(** Serialize; [pretty] (default false) adds newlines and 2-space
    indentation.  Strings are escaped per RFC 8259; non-finite numbers
    are emitted as [null] (JSON cannot represent them). *)

val number_to_string : float -> string
(** How every number is printed, byte for byte what [Printf.sprintf]
    gives: ["null"] for a non-finite [f]; [%.0f] for an integral
    [|f| < 1e15]; otherwise [%.12g] when that reads back as exactly [f],
    else [%.17g].  {!add_number} into a fresh buffer.

    Integral values are printed digit by digit.  The others take their
    digits from {!Float_digits}, which proves them from an error-free
    double-double product [f 10^s] for a normal [f] with about
    [1e-28 <= |f| < 1e39] ([-22 <= s <= 44]), and gives none where that
    product lies within [1e-7] of a half-integer (exact decimal ties
    among them), for subnormals and outside that range;
    there the C formatter behind [Printf] prints the number, so the
    bytes are libc's by construction.

    The [%.12g] attempt runs only when the 17 digits N cannot rule a
    round trip out: N's last five digits, read as an integer, in
    (1000, 99000) rule it out.  For a normal float a round-tripping
    12-digit [D] lies within half an ulp, at most [2^-53 |f|], of [f]:
    under 12 units of the 17th digit, while such a tail is at least
    1000 units from every 12-digit decimal.  Whether the 12 digits read
    back is decided exactly, by one correctly rounded multiplication or
    division where both operands are exact doubles. *)

(** {1 Buffer writers} — the compact serializer piecewise, for encoders
    that stream a response into a reusable buffer without building the
    tree first.  Output is byte-identical to the corresponding
    [to_string ~pretty:false] fragment. *)

val add_json : Buffer.t -> t -> unit
(** Compact {!to_string} into [buf]. *)

val add_number : Buffer.t -> float -> unit
(** One number, as {!number_to_string} prints it, written straight into
    [buf]: nothing is allocated unless libc prints it. *)

val add_escaped : Buffer.t -> string -> unit
(** One RFC 8259-escaped string literal, quotes included. *)

(** {1 Accessors} — total functions returning [option]. *)

val member : string -> t -> t option
(** Field lookup in an object ([None] elsewhere). *)

val to_float : t -> float option
val to_int : t -> int option
(** [Number] with an integral value. *)

val to_bool : t -> bool option
val to_list : t -> t list option
val to_str : t -> string option

val float_field : string -> t -> float option
val string_field : string -> t -> string option
val list_field : string -> t -> t list option

(** {1 Builders} *)

val float_array : float array -> t
val of_float_array : t -> float array option
