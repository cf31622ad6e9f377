type t =
  | Null
  | Bool of bool
  | Number of float
  | String of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of { position : int; message : string }

(* ------------------------- parsing ------------------------- *)

(* The lexer allocates only the tree it returns (and the error it
   raises): characters are tested in place, a string without escapes is
   one [String.sub], a number is read from its span by
   [Float_digits.read], and lists are built in order by
   tail-modulo-cons, without a reversed copy. *)

type parser_state = { input : string; mutable pos : int }

let fail st message = raise (Parse_error { position = st.pos; message })

let at_end st = st.pos >= String.length st.input

(* Whether the next character is [c]. *)
let at st c = st.pos < String.length st.input && String.unsafe_get st.input st.pos = c

let advance st = st.pos <- st.pos + 1

let skip_ws st =
  while
    st.pos < String.length st.input
    &&
    match String.unsafe_get st.input st.pos with
    | ' ' | '\t' | '\n' | '\r' -> true
    | _ -> false
  do
    advance st
  done

let expect st c =
  if at st c then advance st
  else if at_end st then fail st (Printf.sprintf "expected %C, found end of input" c)
  else fail st (Printf.sprintf "expected %C, found %C" c st.input.[st.pos])

let parse_literal st word value =
  let n = String.length word in
  let i = ref 0 in
  if st.pos + n <= String.length st.input then
    while !i < n && String.unsafe_get st.input (st.pos + !i) = String.unsafe_get word !i do
      incr i
    done;
  if !i = n then begin
    st.pos <- st.pos + n;
    value
  end
  else fail st (Printf.sprintf "invalid literal (expected %s)" word)

let is_number_char c =
  (c >= '0' && c <= '9') || c = '-' || c = '+' || c = '.' || c = 'e' || c = 'E'

(* The span of number characters, read as [float_of_string] reads it. *)
let parse_number st =
  let start = st.pos in
  while st.pos < String.length st.input && is_number_char (String.unsafe_get st.input st.pos) do
    advance st
  done;
  match Float_digits.read st.input start st.pos with
  | f -> Number f
  | exception Failure _ ->
      fail st (Printf.sprintf "invalid number %S" (String.sub st.input start (st.pos - start)))

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

(* The rest of a string with an escape in it, from the backslash at
   [st.pos]; [buf] holds what came before. *)
let rec parse_escaped st buf =
  if at_end st then fail st "unterminated string";
  match String.unsafe_get st.input st.pos with
  | '"' ->
      advance st;
      Buffer.contents buf
  | '\\' ->
      advance st;
      if at_end st then fail st "unterminated escape";
      let c = st.input.[st.pos] in
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
             let combined = 0x10000 + ((code - 0xD800) lsl 10) + (low - 0xDC00) in
             utf8_of_code buf combined
           end
           else utf8_of_code buf code
       | c -> fail st (Printf.sprintf "invalid escape \\%C" c));
      parse_escaped st buf
  | c ->
      advance st;
      Buffer.add_char buf c;
      parse_escaped st buf

(* A string whose opening quote is consumed: one [String.sub] up to the
   closing quote, unless an escape comes first. *)
let parse_string_body st =
  let start = st.pos in
  let input = st.input in
  while
    st.pos < String.length input
    &&
    match String.unsafe_get input st.pos with '"' | '\\' -> false | _ -> true
  do
    advance st
  done;
  if at st '"' then begin
    advance st;
    String.sub input start (st.pos - 1 - start)
  end
  else if at_end st then fail st "unterminated string"
  else begin
    let buf = Buffer.create (st.pos - start + 16) in
    Buffer.add_substring buf input start (st.pos - start);
    parse_escaped st buf
  end

(* The parser recurses once per nesting level, so adversarial input like
   ["[[[[..."] would otherwise turn into a stack overflow — an exception
   [parse_result] does not catch.  Capping the depth converts that into
   an ordinary [Parse_error] long before the stack is at risk. *)
let max_depth = 512

let rec parse_value st ~depth =
  skip_ws st;
  if at_end st then fail st "unexpected end of input";
  match String.unsafe_get st.input st.pos with
  | 'n' -> parse_literal st "null" Null
  | 't' -> parse_literal st "true" (Bool true)
  | 'f' -> parse_literal st "false" (Bool false)
  | '"' ->
      advance st;
      String (parse_string_body st)
  | '[' ->
      if depth >= max_depth then fail st "nesting too deep";
      advance st;
      skip_ws st;
      if at st ']' then begin
        advance st;
        List []
      end
      else List (parse_items st (depth + 1))
  | '{' ->
      if depth >= max_depth then fail st "nesting too deep";
      advance st;
      skip_ws st;
      if at st '}' then begin
        advance st;
        Obj []
      end
      else Obj (parse_pairs st (depth + 1))
  | '-' | '0' .. '9' -> parse_number st
  | c -> fail st (Printf.sprintf "unexpected character %C" c)

and[@tail_mod_cons] parse_items st depth =
  let v = parse_value st ~depth in
  skip_ws st;
  if at st ',' then begin
    advance st;
    v :: parse_items st depth
  end
  else if at st ']' then begin
    advance st;
    [ v ]
  end
  else raise (Parse_error { position = st.pos; message = "expected ',' or ']'" })

and[@tail_mod_cons] parse_pairs st depth =
  skip_ws st;
  expect st '"';
  let key = parse_string_body st in
  skip_ws st;
  expect st ':';
  let v = parse_value st ~depth in
  skip_ws st;
  if at st ',' then begin
    advance st;
    (key, v) :: parse_pairs st depth
  end
  else if at st '}' then begin
    advance st;
    [ (key, v) ]
  end
  else raise (Parse_error { position = st.pos; message = "expected ',' or '}'" })

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

(* The number rule through libc, for the floats whose digits
   [Float_digits] cannot prove. *)
let libc_number f =
  let s = Float_digits.libc "%.17g" f in
  let shorter = Float_digits.libc "%.12g" f in
  if float_of_string shorter = f then shorter else s

(* Whether the 17 digits N of a normal float f rule out a [%.12g] round
   trip: N's last five digits, read as an integer, lie in (1000, 99000).

   Why that is exact, for u the unit of N's last digit: |N u - f| <=
   0.5 u, and if D = [%.12g] f round-trips, f is the double nearest D,
   so |f - D| <= half an ulp <= 2^-53 |f| < 11.2 u.  D has at most 12
   significant digits: at or above 10^16 u it is a multiple of 10^5 u;
   below, a multiple of 10^4 u, it is at most 10^16 u - 10^4 u, too far
   below f >= (10^16 - 0.5) u.  N's distance to the nearest multiple of
   10^5 is then under 12; the (1000, 99000) window keeps a wide margin.
   The ulp bound fails for subnormals, for which [Float_digits.scale]
   gives no digits. *)
let seventeen_digits_needed n =
  let tail = n mod 100_000 in
  tail > 1000 && tail < 99_000

let rec add_digits buf i =
  if i >= 10 then add_digits buf (i / 10);
  Buffer.add_char buf (Char.unsafe_chr (Char.code '0' + (i mod 10)))

(* [%.0f] for an integral |f| < 1e15 — ids, counts, iteration fields,
   grid scales — digit by digit ("-0" included).  Otherwise [%.12g] when
   that reads back as exactly f, else [%.17g], from the digits
   [Float_digits] proves.  Solver output almost never round-trips at 12
   digits, so the [%.12g] attempt runs only when the 17 digits cannot
   rule it out. *)
let add_number buf f =
  if Float.is_integer f && Float.abs f < 1e15 then begin
    if f = 0. then
      Buffer.add_string buf (if 1. /. f < 0. then "-0" else "0")
    else begin
      if f < 0. then Buffer.add_char buf '-';
      add_digits buf (int_of_float (Float.abs f))
    end
  end
  else if not (Float.is_finite f) then Buffer.add_string buf "null"
  else begin
    let s = Float_digits.scale 17 f in
    if s = Float_digits.no_scale then Buffer.add_string buf (libc_number f)
    else begin
      let n = Float_digits.digits f s in
      if seventeen_digits_needed n then Float_digits.add_g buf 17 f n s
      else begin
        let s12 = Float_digits.scale 12 f in
        if s12 = Float_digits.no_scale then Buffer.add_string buf (libc_number f)
        else begin
          let n12 = Float_digits.digits f s12 in
          if Float_digits.reads_back f n12 s12 then Float_digits.add_g buf 12 f n12 s12
          else Float_digits.add_g buf 17 f n s
        end
      end
    end
  end

let number_to_string f =
  let buf = Buffer.create 24 in
  add_number buf f;
  Buffer.contents buf

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
    | Number f -> add_number buf f
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
