(** A small, dependency-free JSON implementation (RFC 8259 subset).

    Used to persist optimizer problems and plans between the CLI tools
    (`ckpt-opt --output plan.json`, `ckpt-simulate --plan plan.json`) and
    to emit machine-readable experiment results.  Supports the full JSON
    value model; numbers are parsed as floats (fine for this library's
    payloads: seconds, counts, rates). *)

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
    nesting deeper than {!max_depth}. *)

val parse_result : string -> (t, string) result
(** Like {!parse}, with the error rendered as a message. *)

val to_string : ?pretty:bool -> t -> string
(** Serialize; [pretty] (default false) adds newlines and 2-space
    indentation.  Strings are escaped per RFC 8259; non-finite numbers
    are emitted as [null] (JSON cannot represent them). *)

val number_to_string : float -> string
(** How every number is printed, byte for byte what
    [Printf.sprintf] gives: ["null"] for a non-finite [f]; [%.0f] for an
    integral [|f| < 1e15]; otherwise [%.12g] when that reads back as
    exactly [f], else [%.17g].

    It calls the C formatter behind [Printf] directly and skips the
    [%.12g] attempt when the [%.17g] digits rule a round trip out: all
    17 significant digits shown, with the 13th–17th, read as an
    integer, in (1000, 99000).  For a normal float a round-tripping
    12-digit [D] lies within half an ulp, at most [2^-53 |f|], of [f]:
    under 12 units of the 17th digit, while such a tail is at least
    1000 units from every 12-digit decimal.  Subnormals, whose ulp is
    not bounded relative to [f], and every other case run the exact
    test. *)

(** {1 Buffer writers} — the compact serializer piecewise, for encoders
    that stream a response into a reusable buffer without building the
    tree first.  Output is byte-identical to the corresponding
    [to_string ~pretty:false] fragment. *)

val add_json : Buffer.t -> t -> unit
(** Compact {!to_string} into [buf]. *)

val add_number : Buffer.t -> float -> unit
(** One number, with integral values rendered digit-by-digit (no printf
    on the hot path) and non-finite values as [null]. *)

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
