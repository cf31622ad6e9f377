(* libc's fixed-precision decimal digits of a double, proved in OCaml.

   For a positive normal x and p <= 17 significant digits, the digits
   libc prints are N = round(x * 10^s), with the scale s chosen so that
   10^(p-1) <= N < 10^p.  The product is formed as a pair hi + lo from
   the exact doubles 10^0..10^22:
   - 0 <= s <= 22: hi = x * 10^s rounded and lo = fma(x, 10^s, -hi), its
     exact remainder, so hi + lo = x * 10^s exactly;
   - 22 < s <= 44: x * 10^22 split exactly the same way into h1 + l1,
     then h1 * 10^(s-22) split exactly and l1 * 10^(s-22) rounded into
     lo: an error under 2^-53 (|l1 10^(s-22)| + |lo|);
   - -22 <= s < 0: hi = x / 10^-s rounded, fma(-hi, 10^-s, x) its exact
     remainder and lo that remainder over 10^-s, rounded: an error of at
     most 2^-53 |lo|.
   For hi < 10^18 those terms are under 256, so the pair is within 1e-13
   of x * 10^s, the rounding below adds under 1e-12, and the nearest
   integer is proved unless hi + lo lies within 1e-7 of a half-integer.
   There, and for zero, subnormal, non-finite or out-of-range arguments,
   no digits are produced and the caller asks libc, so every rendering
   is libc's byte for byte. *)

let pow10 =
  [| 1e0; 1e1; 1e2; 1e3; 1e4; 1e5; 1e6; 1e7; 1e8; 1e9; 1e10; 1e11; 1e12; 1e13;
     1e14; 1e15; 1e16; 1e17; 1e18; 1e19; 1e20; 1e21; 1e22 |]

let no_scale = min_int

external format_float : string -> float -> string = "caml_format_float"

let libc_calls = Atomic.make 0

let libc fmt x =
  Atomic.incr libc_calls;
  format_float fmt x

let fallbacks () = Atomic.get libc_calls

(* round(|x| * 10^s), or -1 where the pair above cannot prove it. *)
let digits x s =
  if s < -22 || s > 44 then -1
  else begin
    let x = Float.abs x in
    let hi =
      if s > 22 then x *. 1e22 *. Array.unsafe_get pow10 (s - 22)
      else if s >= 0 then x *. Array.unsafe_get pow10 s
      else x /. Array.unsafe_get pow10 (-s)
    in
    let lo =
      if s > 22 then begin
        let t = Array.unsafe_get pow10 (s - 22) and h1 = x *. 1e22 in
        Float.fma h1 t (-.hi) +. (Float.fma x 1e22 (-.h1) *. t)
      end
      else if s >= 0 then Float.fma x (Array.unsafe_get pow10 s) (-.hi)
      else
        let d = Array.unsafe_get pow10 (-s) in
        Float.fma (-.hi) d x /. d
    in
    (* hi < 10^18 truncates exactly; t is positive, t - 1024 truncated is
       the offset of the nearest integer from [whole], and t's fraction
       is how far hi + lo + 1/2 lies from an integer. *)
    if not (hi < 1e18) then -1
    else begin
      let whole = Float.to_int hi in
      let t = hi -. Float.of_int whole +. lo +. 1024.5 in
      let j = Float.to_int t in
      let frac = t -. Float.of_int j in
      if frac < 1e-7 || frac > 1. -. 1e-7 then -1 else whole + j - 1024
    end
  end

(* A decade estimate that is never above floor(log10 |x|), and at most
   one below it, for a normal |x| = (1 + f) 2^e: log2 |x| >= e + f, at
   most 0.087 above it, and the bits below the sign give
   floor((e + f) 2^20) directly.  315653 / 2^20 exceeds log10 2 by
   1.7e-7, under 1.7e-4 decades for |e| <= 1023, which the 2^-10 taken
   off covers. *)
let decade x =
  let y = (Int64.to_int (Int64.bits_of_float x) lsr 32) - (1023 lsl 20) in
  ((y * 315653) - (1 lsl 30)) asr 40

(* Started at most one decade low, a product at or past 10^p moves one
   decade up: past it the decade was too low, at 10^p exactly the digits
   carried into a new decade, whose p-digit rounding is 10^(p-1). *)
let rec fit x top s =
  let n = digits x s in
  if n < 0 then no_scale else if n < top then s else fit x top (s - 1)

let scale p x =
  let a = Float.abs x in
  if p < 1 || p > 17 || not (a >= Float.min_float && a <= Float.max_float) then no_scale
  else fit x (Float.to_int (Array.unsafe_get pow10 p)) (p - 1 - decade x)

(* For n < 2^53 and |s| <= 22 both operands are exact, so one correctly
   rounded operation gives the double nearest n * 10^-s (Clinger's fast
   path); elsewhere strtod, correctly rounded too, reads the digits. *)
let reads_back x n s =
  let d =
    if s >= 0 && s <= 22 then Float.of_int n /. Array.unsafe_get pow10 s
    else if s < 0 && s >= -22 then Float.of_int n *. Array.unsafe_get pow10 (-s)
    else float_of_string (string_of_int n ^ "e" ^ string_of_int (-s))
  in
  d = Float.abs x

(* Two bytes as the int [Buffer.add_uint16_ne] stores in this order: the
   one multi-byte writer the compiler inlines, where [add_char] is a
   call. *)
let pair c1 c2 = if Sys.big_endian then (c1 lsl 8) lor c2 else (c2 lsl 8) lor c1
let digit_pair d1 d2 = pair (48 + d1) (48 + d2)

(* The len digits of n, most significant first and two at a time, with a
   '.' after the first [point] of them when 0 < point < len. *)
let rec add_digits buf n len point =
  if len > 2 then add_digits buf (n / 100) (len - 2) point;
  if len = 1 then Buffer.add_char buf (Char.unsafe_chr (48 + n))
  else begin
    let r = n mod 100 in
    let d = r / 10 in
    if point = len - 1 then begin
      Buffer.add_uint16_ne buf (pair (48 + d) (Char.code '.'));
      Buffer.add_char buf (Char.unsafe_chr (48 + r - (10 * d)))
    end
    else begin
      if point = len - 2 then Buffer.add_char buf '.';
      Buffer.add_uint16_ne buf (digit_pair d (r - (10 * d)))
    end
  end

(* libc's exponent: a sign and at least two digits. *)
let add_exponent buf k =
  Buffer.add_uint16_ne buf (pair (Char.code 'e') (Char.code (if k < 0 then '-' else '+')));
  let k = abs k in
  if k >= 100 then Buffer.add_char buf (Char.unsafe_chr (48 + (k / 100)));
  Buffer.add_uint16_ne buf (digit_pair (k / 10 mod 10) (k mod 10))

let add_e buf p x n s =
  if x < 0. then Buffer.add_char buf '-';
  add_digits buf n p 1;
  add_exponent buf (p - 1 - s)

(* %g prints decimal exponent k in fixed notation when -4 <= k < p, with
   p - 1 - k decimals, and in exponent notation otherwise; either way
   without trailing zeros after the point, or the point itself. *)
let add_g buf p x n s =
  if x < 0. then Buffer.add_char buf '-';
  let k = p - 1 - s in
  let fixed = k >= -4 && k < p in
  let keep = if fixed && k >= 0 then k + 1 else 1 in
  let n = ref n and len = ref p in
  while !len > keep && !n mod 10 = 0 do
    n := !n / 10;
    decr len
  done;
  if not fixed then begin
    add_digits buf !n !len 1;
    add_exponent buf k
  end
  else if k >= 0 then add_digits buf !n !len (k + 1)
  else begin
    Buffer.add_uint16_ne buf (pair 48 (Char.code '.'));
    for _ = 2 to -k do
      Buffer.add_char buf '0'
    done;
    add_digits buf !n !len (-1)
  end

(* ------------------------------ reading ------------------------------ *)

(* The double nearest a decimal m 10^e, in OCaml where that can be
   proved, and strtod (through [float_of_string]) elsewhere, so every
   result is the one [float_of_string] gives.

   The span is read as strtod reads it: a sign, digits with at most one
   '.', and an exponent with at least one digit.  Its significant digits
   fold into an integer m below 2^62 (zeros are held back until a
   non-zero digit follows, so trailing zeros never overflow), and
   e = (exponent) - (digits after the point) + (zeros held back).
   - m <= 2^53 and |e| <= 22: both m and 10^|e| are exact doubles, so
     one correctly rounded multiplication or division is the answer
     (Clinger's fast path); for e > 22 the same holds while
     m 10^(e-22) stays at most 2^53.
   - m > 2^53 (16 to 19 digits) and |e| <= 22: m = mh + ml with
     mh = m rounded down to a multiple of 1024 and ml < 1024, both
     exact.  For e >= 0, h = mh 10^e rounded and fma(mh, 10^e, -h) its
     exact remainder; for e < 0, q = mh / 10^-e rounded and
     fma(-q, 10^-e, mh) its exact remainder.  What is left of m 10^e
     beyond h (or q) is a tail of a few ulps, formed with at most two
     roundings: an error under 2^-52 of the terms it adds.  y = h + tail
     rounded and the exact residual of that sum (Fast2Sum) tell how far
     m 10^e lies from y; y is the answer when that distance, widened by
     the tail's error bound, stays inside half the gap to y's
     neighbour.  Only decimals within about 2^-30 of a half-ulp fail
     that test, exact ties among them.
   Everything else — more significant digits than fit, exponents
   outside the table, characters strtod might still take (a space, an
   underscore, hex or nan/inf letters) — goes to strtod, counted with
   the printer's calls of libc. *)

let refused = Failure "float_of_string"

let strtod s start stop =
  Atomic.incr libc_calls;
  float_of_string (String.sub s start (stop - start))

let int_pow10 = Array.init 19 (fun k -> Float.to_int (Array.unsafe_get pow10 k))

(* [fold_limit.(k)]: the largest m for which m 10^k + 9 is at most
   [max_int]. *)
let fold_limit = Array.init 19 (fun k -> if k = 0 then max_int else (max_int - 9) / int_pow10.(k))

let two53 = 1 lsl 53

(* Whether the double y is the nearest to y + err + d for every
   |d| <= margin, y positive and normal: half the gap to the neighbour
   on err's side, less 2^-30 of it for the rounding of the sum on the
   left.  With c = y 2^-53, exact, in [ulp/2, ulp) for y's ulp, y + c
   rounds up to y + ulp, except at y = 2^k, where c is exactly ulp/2 and
   the tie goes to y; there the gap above is 2c and the gap below c.
   Inlined, so that the floats stay unboxed. *)
let[@inline] nearest y err margin =
  let c = y *. 0x1p-53 in
  let u = y +. c -. y in
  let gap = if u > 0. then u else if err >= 0. then 2. *. c else c in
  Float.abs err +. margin <= gap *. (0.5 -. 0x1p-31)

(* m 10^e for 2^53 < m < 2^62 and 0 <= e <= 22, or nan. *)
let product m e =
  let mh = Float.of_int (m land lnot 1023) and ml = Float.of_int (m land 1023) in
  let p = Array.unsafe_get pow10 e in
  let h = mh *. p in
  let t = ml *. p in
  let tail = Float.fma mh p (-.h) +. t in
  let y = h +. tail in
  let err = tail -. (y -. h) in
  if nearest y err ((Float.abs tail +. Float.abs t) *. 0x1p-50) then y else Float.nan

(* 10^-k rounded, for the tail of a quotient: one more rounding there
   stays inside its error bound. *)
let inv_pow10 = Array.map (fun p -> 1. /. p) pow10

(* m 10^-k for 2^53 < m < 2^62 and 1 <= k <= 22, or nan.  The tail's
   three roundings (a sum, the reciprocal, a product) err by under
   2^-51 of it. *)
let quotient m k =
  let mh = Float.of_int (m land lnot 1023) and ml = Float.of_int (m land 1023) in
  let p = Array.unsafe_get pow10 k in
  let q = mh /. p in
  let tail = (Float.fma (-.q) p mh +. ml) *. Array.unsafe_get inv_pow10 k in
  let y = q +. tail in
  let err = tail -. (y -. q) in
  if nearest y err (Float.abs tail *. 0x1p-50) then y else Float.nan

(* The double nearest m 10^e for 0 < m < 2^62, or nan where the paths
   above cannot prove it. *)
let magnitude m e =
  if m <= two53 then
    if e >= 0 && e <= 22 then Float.of_int m *. Array.unsafe_get pow10 e
    else if e < 0 && e >= -22 then Float.of_int m /. Array.unsafe_get pow10 (-e)
    else if e > 22 && e <= 22 + 18 && m <= two53 / Array.unsafe_get int_pow10 (e - 22) then
      Float.of_int (m * Array.unsafe_get int_pow10 (e - 22)) *. 1e22
    else Float.nan
  else if e >= 0 && e <= 22 then product m e
  else if e < 0 && e >= -22 then quotient m (-e)
  else Float.nan

(* A character strtod could take in some number; a span that breaks the
   grammar on one of these is refused, on any other left to strtod. *)
let number_char = function
  | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
  | _ -> false

let read s start stop =
  if start < 0 || stop > String.length s || start > stop then invalid_arg "Float_digits.read";
  let neg = start < stop && String.unsafe_get s start = '-' in
  let signed = neg || (start < stop && String.unsafe_get s start = '+') in
  let first = if signed then start + 1 else start in
  let i = ref first in
  (* m, the zeros [held] back from it, and e: the span is
     m 10^(held + e).  Leading zeros are held too, and dropped when the
     first non-zero digit arrives at m = 0. *)
  let m = ref 0 and held = ref 0 and e = ref 0 and fits = ref true in
  let point = ref (-1) in
  let continue = ref true in
  while !continue && !i < stop do
    let c = String.unsafe_get s !i in
    if c >= '0' && c <= '9' then begin
      if c = '0' then incr held
      else if !m = 0 then begin
        m := Char.code c - 48;
        held := 0
      end
      else begin
        let k = !held + 1 in
        if k <= 18 && !m <= Array.unsafe_get fold_limit k then
          m := (!m * Array.unsafe_get int_pow10 k) + (Char.code c - 48)
        else fits := false;
        held := 0
      end;
      incr i
    end
    else if c = '.' && !point < 0 then begin
      point := !i;
      incr i
    end
    else continue := false
  done;
  (* Every digit after the point lowers the exponent by one. *)
  if !point >= 0 then e := !point + 1 - !i;
  let digits = !i - first - if !point >= 0 then 1 else 0 in
  let ok = ref (digits > 0) in
  if !ok && !i < stop && (String.unsafe_get s !i = 'e' || String.unsafe_get s !i = 'E') then begin
    incr i;
    let eneg = !i < stop && String.unsafe_get s !i = '-' in
    if eneg || (!i < stop && String.unsafe_get s !i = '+') then incr i;
    let x = ref 0 and exponent = !i in
    while !i < stop && String.unsafe_get s !i >= '0' && String.unsafe_get s !i <= '9' do
      (* Past 10^5 the double is 0 or infinite, and strtod says which. *)
      if !x < 100_000 then x := (!x * 10) + (Char.code (String.unsafe_get s !i) - 48)
      else fits := false;
      incr i
    done;
    ok := !i > exponent;
    e := !e + if eneg then - !x else !x
  end;
  if not (!ok && !i = stop) then
    if !i < stop && not (number_char (String.unsafe_get s !i)) then strtod s start stop
    else raise refused
  else if !m = 0 && !fits then if neg then -0. else 0.
  else begin
    let v = if !fits then magnitude !m (!e + !held) else Float.nan in
    if Float.is_nan v then strtod s start stop else if neg then -.v else v
  end
