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
