open Ckpt_model
module Failure_spec = Ckpt_failures.Failure_spec
module Float_digits = Ckpt_json.Float_digits

let default_precision = 9

(* [float_repr] into a buffer: the digits [Float_digits] proves, printed
   as [%.(precision-1)e] prints them, and libc's [%.*e] for the rest. *)
let add_repr buf ~precision x =
  if x = 0. then Buffer.add_char buf '0' (* covers -0. *)
  else if Float.is_nan x then Buffer.add_string buf "nan"
  else if x = infinity then Buffer.add_string buf "inf"
  else if x = neg_infinity then Buffer.add_string buf "-inf"
  else begin
    let s = Float_digits.scale precision x in
    if s <> Float_digits.no_scale then
      Float_digits.add_e buf precision x (Float_digits.digits x s) s
    else
      Buffer.add_string buf
        (Float_digits.libc (Printf.sprintf "%%.%de" (precision - 1)) x)
  end

let float_repr ~precision =
  if precision < 1 then invalid_arg "Fingerprint.float_repr: precision < 1";
  fun x ->
    let buf = Buffer.create 24 in
    add_repr buf ~precision x;
    Buffer.contents buf

(* The canonical form, appended piece by piece into one buffer in the
   order the hashed text has always had:
   v1|alloc=A|baseline=B|levels=L1;L2..|rates=R1,R2..|speedup=S|te=T
   with Li = c(eps=E,alpha=A,h=H)r(eps=E,alpha=A,h=H).  Names are
   excluded (labels only); hierarchy order is preserved — position is
   semantic. *)
let canonical ?(precision = default_precision) (p : Optimizer.problem) =
  if precision < 1 then invalid_arg "Fingerprint.float_repr: precision < 1";
  let buf = Buffer.create 512 in
  let add = Buffer.add_string buf in
  let num x = add_repr buf ~precision x in
  let overhead (o : Overhead.t) =
    add "eps=";
    num o.Overhead.eps;
    add ",alpha=";
    num o.Overhead.alpha;
    add ",h=";
    add o.Overhead.h_name
  in
  add "v1|alloc=";
  num p.Optimizer.alloc;
  add "|baseline=";
  num p.Optimizer.spec.Failure_spec.baseline_scale;
  add "|levels=";
  Array.iteri
    (fun i (l : Level.t) ->
      if i > 0 then Buffer.add_char buf ';';
      add "c(";
      overhead l.Level.ckpt;
      add ")r(";
      overhead l.Level.restart;
      Buffer.add_char buf ')')
    p.Optimizer.levels;
  add "|rates=";
  Array.iteri
    (fun i r ->
      if i > 0 then Buffer.add_char buf ',';
      num r)
    p.Optimizer.spec.Failure_spec.rates_per_day;
  add "|speedup=";
  (match p.Optimizer.speedup.Speedup.form with
  | Speedup.Linear { kappa } ->
      add "linear,kappa=";
      num kappa
  | Speedup.Quadratic { kappa; n_star } ->
      add "quadratic,kappa=";
      num kappa;
      add ",n_star=";
      num n_star
  | Speedup.Amdahl { serial_fraction; peak } ->
      add "amdahl,s=";
      num serial_fraction;
      add ",peak=";
      num peak
  | Speedup.Gustafson { serial_fraction; peak } ->
      add "gustafson,s=";
      num serial_fraction;
      add ",peak=";
      num peak
  | Speedup.Custom _ ->
      invalid_arg "Fingerprint.canonical: custom speedups have no canonical form");
  add "|te=";
  num p.Optimizer.te;
  Buffer.contents buf

let hash_init = 0xcbf29ce484222325L

(* A plain loop over a local accumulator: the compiler keeps it unboxed,
   where [String.iter] with a closure over an [Int64 ref] boxed on every
   byte. *)
let hash_fold h s =
  let h = ref h in
  for i = 0 to String.length s - 1 do
    let c = Int64.of_int (Char.code (String.unsafe_get s i)) in
    h := Int64.mul (Int64.logxor !h c) 0x100000001b3L
  done;
  !h

let hex_digits = "0123456789abcdef"

(* Same 16 lowercase hex digits [%016Lx] prints, without the printf
   machinery — the hot key path renders one per query. *)
let hash_hex h =
  let b = Bytes.create 16 in
  for i = 0 to 15 do
    let nibble = Int64.to_int (Int64.shift_right_logical h ((15 - i) * 4)) land 0xf in
    Bytes.unsafe_set b i (String.unsafe_get hex_digits nibble)
  done;
  Bytes.unsafe_to_string b

let hash_string s = hash_hex (hash_fold hash_init s)

let of_problem ?precision p = hash_string (canonical ?precision p)
