type t =
  | Null
  | Bool of bool
  | Number of float
  | String of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of { position : int; message : string }

(* ------------------------- parsing ------------------------- *)

type parser_state = { input : string; mutable pos : int }

let fail st message = raise (Parse_error { position = st.pos; message })

let peek st = if st.pos < String.length st.input then Some st.input.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let rec skip_ws st =
  match peek st with
  | Some (' ' | '\t' | '\n' | '\r') ->
      advance st;
      skip_ws st
  | _ -> ()

let expect st c =
  match peek st with
  | Some d when d = c -> advance st
  | Some d -> fail st (Printf.sprintf "expected %C, found %C" c d)
  | None -> fail st (Printf.sprintf "expected %C, found end of input" c)

let parse_literal st word value =
  let n = String.length word in
  if st.pos + n <= String.length st.input && String.sub st.input st.pos n = word then begin
    st.pos <- st.pos + n;
    value
  end
  else fail st (Printf.sprintf "invalid literal (expected %s)" word)

let parse_number st =
  let start = st.pos in
  let is_number_char c =
    (c >= '0' && c <= '9') || c = '-' || c = '+' || c = '.' || c = 'e' || c = 'E'
  in
  let rec consume () =
    match peek st with
    | Some c when is_number_char c ->
        advance st;
        consume ()
    | _ -> ()
  in
  consume ();
  let text = String.sub st.input start (st.pos - start) in
  match float_of_string_opt text with
  | Some f -> Number f
  | None -> fail st (Printf.sprintf "invalid number %S" text)

let parse_hex4 st =
  if st.pos + 4 > String.length st.input then fail st "truncated \\u escape";
  let hex = String.sub st.input st.pos 4 in
  st.pos <- st.pos + 4;
  match int_of_string_opt ("0x" ^ hex) with
  | Some code -> code
  | None -> fail st (Printf.sprintf "invalid \\u escape %S" hex)

(* Encode a Unicode scalar value as UTF-8. *)
let utf8_of_code buf code =
  if code < 0x80 then Buffer.add_char buf (Char.chr code)
  else if code < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end
  else if code < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (code lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end

let parse_string_body st =
  let buf = Buffer.create 16 in
  let rec loop () =
    match peek st with
    | None -> fail st "unterminated string"
    | Some '"' ->
        advance st;
        Buffer.contents buf
    | Some '\\' -> (
        advance st;
        match peek st with
        | None -> fail st "unterminated escape"
        | Some c ->
            advance st;
            (match c with
             | '"' -> Buffer.add_char buf '"'
             | '\\' -> Buffer.add_char buf '\\'
             | '/' -> Buffer.add_char buf '/'
             | 'b' -> Buffer.add_char buf '\b'
             | 'f' -> Buffer.add_char buf '\012'
             | 'n' -> Buffer.add_char buf '\n'
             | 'r' -> Buffer.add_char buf '\r'
             | 't' -> Buffer.add_char buf '\t'
             | 'u' ->
                 let code = parse_hex4 st in
                 (* Surrogate pair handling. *)
                 if code >= 0xD800 && code <= 0xDBFF then begin
                   expect st '\\';
                   expect st 'u';
                   let low = parse_hex4 st in
                   if low < 0xDC00 || low > 0xDFFF then fail st "invalid surrogate pair";
                   let combined =
                     0x10000 + ((code - 0xD800) lsl 10) + (low - 0xDC00)
                   in
                   utf8_of_code buf combined
                 end
                 else utf8_of_code buf code
             | c -> fail st (Printf.sprintf "invalid escape \\%C" c));
            loop ())
    | Some c ->
        advance st;
        Buffer.add_char buf c;
        loop ()
  in
  loop ()

(* The parser recurses once per nesting level, so adversarial input like
   ["[[[[..."] would otherwise turn into a stack overflow — an exception
   [parse_result] does not catch.  Capping the depth converts that into
   an ordinary [Parse_error] long before the stack is at risk. *)
let max_depth = 512

let rec parse_value st ~depth =
  skip_ws st;
  match peek st with
  | None -> fail st "unexpected end of input"
  | Some 'n' -> parse_literal st "null" Null
  | Some 't' -> parse_literal st "true" (Bool true)
  | Some 'f' -> parse_literal st "false" (Bool false)
  | Some '"' ->
      advance st;
      String (parse_string_body st)
  | Some '[' ->
      if depth >= max_depth then fail st "nesting too deep";
      advance st;
      skip_ws st;
      if peek st = Some ']' then begin
        advance st;
        List []
      end
      else begin
        let rec items acc =
          let v = parse_value st ~depth:(depth + 1) in
          skip_ws st;
          match peek st with
          | Some ',' ->
              advance st;
              items (v :: acc)
          | Some ']' ->
              advance st;
              List (List.rev (v :: acc))
          | _ -> fail st "expected ',' or ']'"
        in
        items []
      end
  | Some '{' ->
      if depth >= max_depth then fail st "nesting too deep";
      advance st;
      skip_ws st;
      if peek st = Some '}' then begin
        advance st;
        Obj []
      end
      else begin
        let parse_pair () =
          skip_ws st;
          expect st '"';
          let key = parse_string_body st in
          skip_ws st;
          expect st ':';
          let v = parse_value st ~depth:(depth + 1) in
          (key, v)
        in
        let rec pairs acc =
          let p = parse_pair () in
          skip_ws st;
          match peek st with
          | Some ',' ->
              advance st;
              pairs (p :: acc)
          | Some '}' ->
              advance st;
              Obj (List.rev (p :: acc))
          | _ -> fail st "expected ',' or '}'"
        in
        pairs []
      end
  | Some ('-' | '0' .. '9') -> parse_number st
  | Some c -> fail st (Printf.sprintf "unexpected character %C" c)

let parse input =
  let st = { input; pos = 0 } in
  let v = parse_value st ~depth:0 in
  skip_ws st;
  if st.pos <> String.length input then fail st "trailing characters";
  v

let parse_result input =
  match parse input with
  | v -> Ok v
  | exception Parse_error { position; message } ->
      Error (Printf.sprintf "at offset %d: %s" position message)

(* ------------------------- printing ------------------------- *)

let escape_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

(* The C formatter that [Printf]'s [%.17g] / [%.12g] / [%.0f] end in,
   called without the format interpreter: same bytes, a fraction of the
   cost. *)
external format_float : string -> float -> string = "caml_format_float"

(* Whether a [%.17g] rendering [s] rules out a [%.12g] round trip: it
   shows all 17 significant digits and its 13th–17th digits, read as an
   integer, lie in (1000, 99000).

   Why that is exact, for a normal float f with decade k
   (10^k <= |f| < 10^(k+1)) and u = 10^(k-16), the unit of S's 17th
   digit: if D = [%.12g] f round-trips, f is the double nearest D, so
   |f - D| <= half an ulp <= 2^-53 |f| < 11.2 u.  D has at most 12
   significant digits in decade k or k+1, so it is a multiple of
   10^5 u, and |S - f| <= 0.5 u.  S's distance to the nearest multiple
   of 10^5 u is min(tail, 10^5 - tail) for its digit tail, so a tail
   more than 12 away from 00000 and 99999 leaves no room for D; the
   (1000, 99000) window keeps a wide margin.  The ulp bound fails for
   subnormals (their ulp is fixed at 2^-1074, huge relative to f), so
   the caller sends those down the exact path. *)
let seventeen_digits_needed s =
  let sig_digits = ref 0 and tail = ref 0 and i = ref 0 in
  let n = String.length s in
  while !i < n do
    (match String.unsafe_get s !i with
     | '0' .. '9' as c ->
         if !sig_digits > 0 || c <> '0' then begin
           incr sig_digits;
           if !sig_digits > 12 then tail := (!tail * 10) + (Char.code c - 48)
         end
     | 'e' -> i := n
     | _ -> ());
    incr i
  done;
  !sig_digits = 17 && !tail > 1000 && !tail < 99000

(* Solver output almost never round-trips at 12 digits, so the [%.12g]
   attempt and its [float_of_string] run only when the [%.17g] digits
   cannot rule the round trip out. *)
let number_to_string f =
  if not (Float.is_finite f) then "null"
  else if Float.is_integer f && Float.abs f < 1e15 then format_float "%.0f" f
  else begin
    let s = format_float "%.17g" f in
    if Float.abs f >= Float.min_float && seventeen_digits_needed s then s
    else
      let shorter = format_float "%.12g" f in
      if float_of_string shorter = f then shorter else s
  end

let rec add_digits buf i =
  if i >= 10 then add_digits buf (i / 10);
  Buffer.add_char buf (Char.unsafe_chr (Char.code '0' + (i mod 10)))

(* [number_to_string] into a caller's buffer, with the integral case —
   iteration counts, grid scales, array lengths, most of a response's
   numbers — rendered digit by digit instead of through printf.  The
   output is byte-identical: [%.0f] on an integral |f| < 1e15 is the
   plain decimal spelling ("-0" included). *)
let add_number buf f =
  if Float.is_integer f && Float.abs f < 1e15 then begin
    if f = 0. then
      Buffer.add_string buf (if 1. /. f < 0. then "-0" else "0")
    else begin
      if f < 0. then Buffer.add_char buf '-';
      add_digits buf (int_of_float (Float.abs f))
    end
  end
  else Buffer.add_string buf (number_to_string f)

let add_escaped = escape_string

(* Compact emission into a caller's buffer: the non-pretty [to_string],
   reusable across responses without rebuilding the buffer. *)
let rec add_json buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (string_of_bool b)
  | Number f -> add_number buf f
  | String s -> escape_string buf s
  | List [] -> Buffer.add_string buf "[]"
  | List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char buf ',';
          add_json buf v)
        items;
      Buffer.add_char buf ']'
  | Obj [] -> Buffer.add_string buf "{}"
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          escape_string buf k;
          Buffer.add_char buf ':';
          add_json buf v)
        fields;
      Buffer.add_char buf '}'

let to_string ?(pretty = false) t =
  let buf = Buffer.create 256 in
  let indent level = if pretty then Buffer.add_string buf (String.make (2 * level) ' ') in
  let newline () = if pretty then Buffer.add_char buf '\n' in
  let rec emit level = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (string_of_bool b)
    | Number f -> Buffer.add_string buf (number_to_string f)
    | String s -> escape_string buf s
    | List [] -> Buffer.add_string buf "[]"
    | List items ->
        Buffer.add_char buf '[';
        newline ();
        List.iteri
          (fun i v ->
            if i > 0 then begin
              Buffer.add_char buf ',';
              newline ()
            end;
            indent (level + 1);
            emit (level + 1) v)
          items;
        newline ();
        indent level;
        Buffer.add_char buf ']'
    | Obj [] -> Buffer.add_string buf "{}"
    | Obj fields ->
        Buffer.add_char buf '{';
        newline ();
        List.iteri
          (fun i (k, v) ->
            if i > 0 then begin
              Buffer.add_char buf ',';
              newline ()
            end;
            indent (level + 1);
            escape_string buf k;
            Buffer.add_string buf (if pretty then ": " else ":");
            emit (level + 1) v)
          fields;
        newline ();
        indent level;
        Buffer.add_char buf '}'
  in
  emit 0 t;
  Buffer.contents buf

(* ------------------------- accessors ------------------------- *)

let member key = function Obj fields -> List.assoc_opt key fields | _ -> None
let to_float = function Number f -> Some f | _ -> None

let to_int = function
  | Number f when Float.is_integer f && Float.abs f <= 2. ** 52. -> Some (int_of_float f)
  | _ -> None

let to_bool = function Bool b -> Some b | _ -> None
let to_list = function List l -> Some l | _ -> None
let to_str = function String s -> Some s | _ -> None

let float_field key t = Option.bind (member key t) to_float
let string_field key t = Option.bind (member key t) to_str
let list_field key t = Option.bind (member key t) to_list

let float_array arr = List (Array.to_list (Array.map (fun f -> Number f) arr))

let of_float_array t =
  match t with
  | List items ->
      let floats = List.filter_map to_float items in
      if List.length floats = List.length items then Some (Array.of_list floats) else None
  | _ -> None
