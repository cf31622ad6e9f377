(* Tests for the dependency-free JSON implementation. *)

open Ckpt_json

let parse = Json.parse
let str ?pretty t = Json.to_string ?pretty t

let check_roundtrip ?(msg = "roundtrip") input =
  let v = parse input in
  let v' = parse (str v) in
  Alcotest.(check bool) msg true (v = v')

(* ---------------- parsing ---------------- *)

let test_parse_scalars () =
  Alcotest.(check bool) "null" true (parse "null" = Json.Null);
  Alcotest.(check bool) "true" true (parse "true" = Json.Bool true);
  Alcotest.(check bool) "false" true (parse "false" = Json.Bool false);
  Alcotest.(check bool) "int" true (parse "42" = Json.Number 42.);
  Alcotest.(check bool) "negative" true (parse "-17" = Json.Number (-17.));
  Alcotest.(check bool) "float" true (parse "3.25" = Json.Number 3.25);
  Alcotest.(check bool) "exponent" true (parse "1e3" = Json.Number 1000.);
  Alcotest.(check bool) "string" true (parse "\"hi\"" = Json.String "hi")

let test_parse_structures () =
  Alcotest.(check bool) "empty list" true (parse "[]" = Json.List []);
  Alcotest.(check bool) "empty obj" true (parse "{}" = Json.Obj []);
  Alcotest.(check bool) "list" true
    (parse "[1, 2, 3]" = Json.List [ Json.Number 1.; Json.Number 2.; Json.Number 3. ]);
  Alcotest.(check bool) "nested" true
    (parse {|{"a": [true, {"b": null}]}|}
     = Json.Obj
         [ ("a", Json.List [ Json.Bool true; Json.Obj [ ("b", Json.Null) ] ]) ])

let test_parse_whitespace () =
  Alcotest.(check bool) "whitespace everywhere" true
    (parse " \n\t{ \"k\" :\r[ 1 , 2 ] } " = Json.Obj [ ("k", Json.List [ Json.Number 1.; Json.Number 2. ]) ])

let test_parse_escapes () =
  Alcotest.(check bool) "quote" true (parse {|"a\"b"|} = Json.String "a\"b");
  Alcotest.(check bool) "backslash" true (parse {|"a\\b"|} = Json.String "a\\b");
  Alcotest.(check bool) "newline" true (parse {|"a\nb"|} = Json.String "a\nb");
  Alcotest.(check bool) "tab" true (parse {|"a\tb"|} = Json.String "a\tb");
  Alcotest.(check bool) "unicode bmp" true (parse {|"é"|} = Json.String "\xc3\xa9");
  (* surrogate pair: U+1F600 *)
  Alcotest.(check bool) "surrogate pair" true
    (parse {|"😀"|} = Json.String "\xf0\x9f\x98\x80")

let expect_error input =
  match Json.parse_result input with
  | Ok _ -> Alcotest.fail (Printf.sprintf "expected parse error for %S" input)
  | Error _ -> ()

let test_parse_errors () =
  List.iter expect_error
    [ ""; "{"; "["; "[1,"; "[1 2]"; "{\"a\"}"; "{\"a\":}"; "nul"; "tru"; "\"unterminated";
      "\"bad \\x escape\""; "01a"; "[1],"; "{\"a\":1,}"; "\"\\ud800\"" ]

let test_parse_error_position () =
  match Json.parse "[1, oops]" with
  | exception Json.Parse_error { position; _ } ->
      Alcotest.(check bool) "position points into the input" true (position >= 3 && position <= 6)
  | _ -> Alcotest.fail "expected error"

(* Parse errors reach clients inside [parse] errors, so their positions
   and messages are part of the protocol: these are the ones the lexer
   gave before it stopped allocating per character. *)
let parse_errors =
  [
    ("", Some (0, "unexpected end of input"));
    ("{", Some (1, "expected '\"', found end of input"));
    ("[", Some (1, "unexpected end of input"));
    ("[1,", Some (3, "unexpected end of input"));
    ("[1 2]", Some (3, "expected ',' or ']'"));
    ("{\"a\"}", Some (4, "expected ':', found '}'"));
    ("{\"a\":}", Some (5, "unexpected character '}'"));
    ("nul", Some (0, "invalid literal (expected null)"));
    ("tru", Some (0, "invalid literal (expected true)"));
    ("\"unterminated", Some (13, "unterminated string"));
    ("\"bad \\x escape\"", Some (7, "invalid escape \\'x'"));
    ("01a", Some (2, "trailing characters"));
    ("[1],", Some (3, "trailing characters"));
    ("{\"a\":1,}", Some (7, "expected '\"', found '}'"));
    ("\"\\ud800\"", Some (7, "expected '\\\\', found '\"'"));
    ("[1, oops]", Some (4, "unexpected character 'o'"));
    ("\"\\u12\"", Some (3, "truncated \\u escape"));
    ("\"\\u12g4\"", Some (7, "invalid \\u escape \"12g4\""));
    ("\"\\ud800\\u0041\"", Some (13, "invalid surrogate pair"));
    ("\"\\ud800x\"", Some (7, "expected '\\\\', found 'x'"));
    ("\"abc\\", Some (5, "unterminated escape"));
    ("{\"a\" 1}", Some (5, "expected ':', found '1'"));
    ("{1:2}", Some (1, "expected '\"', found '1'"));
    ("-", Some (1, "invalid number \"-\""));
    ("1e", Some (2, "invalid number \"1e\""));
    ("--1", Some (3, "invalid number \"--1\""));
    ("[-]", Some (2, "invalid number \"-\""));
    ("{\"k\":\"v\"", Some (8, "expected ',' or '}'"));
    ("[1,]", Some (3, "unexpected character ']'"));
    ("\000", Some (0, "unexpected character '\\000'"));
    ("[\"a\",\"b\\", Some (8, "unterminated escape"));
    ("tr", Some (0, "invalid literal (expected true)"));
    ("truex", Some (4, "trailing characters"));
    ("[[[", Some (3, "unexpected end of input"));
    ("\"\\u00e9\"x", Some (8, "trailing characters"));
    ("1 2", Some (2, "trailing characters"));
    ("  ", Some (2, "unexpected end of input"));
    ("{\"a\":[1,2,{\"b\":nul}]}", Some (15, "invalid literal (expected null)"));
    ("1.2.3", Some (5, "invalid number \"1.2.3\""));
    ("+1", Some (0, "unexpected character '+'"));
    (".5", Some (0, "unexpected character '.'"));
    ("[1.5e+]", Some (6, "invalid number \"1.5e+\""));
    ("\"\\", Some (2, "unterminated escape"));
    ("\"\\q\"", Some (3, "invalid escape \\'q'"));
    ("\"\\u\"", Some (3, "truncated \\u escape"));
    ("\"\\ud834\\udd1e", Some (13, "unterminated string"));
    ("{\"a\":1 \"b\":2}", Some (7, "expected ',' or '}'"));
    ("{\"a\":1,\"b\"}", Some (10, "expected ':', found '}'"));
    ("[1e999,1e-400,-0,00012]x", Some (23, "trailing characters"));
    ("{\"\\u0041\":falsy}", Some (10, "invalid literal (expected false)"));
    ("\"\\ud834\\udd1e\" ]", Some (15, "trailing characters"));
    (String.make 513 '[', Some (512, "nesting too deep"));
    ("[" ^ String.make 600 ' ' ^ "1,]", Some (603, "unexpected character ']'"));
    ("{\"op\":\"plan\",\"problem\":{\"te\":1e}}", Some (31, "invalid number \"1e\""))
  ]

let test_parse_error_messages () =
  List.iter
    (fun (input, want) ->
      let got =
        match Json.parse input with
        | _ -> None
        | exception Json.Parse_error { position; message } -> Some (position, message)
      in
      Alcotest.(check (option (pair int string)))
        (Printf.sprintf "error for %S" (String.sub input 0 (min 40 (String.length input))))
        want got)
    parse_errors

(* ---------------- printing ---------------- *)

let test_print_compact () =
  Alcotest.(check string) "compact" {|{"a":[1,true,"x"],"b":null}|}
    (str
       (Json.Obj
          [ ("a", Json.List [ Json.Number 1.; Json.Bool true; Json.String "x" ]);
            ("b", Json.Null) ]))

let test_print_pretty_reparses () =
  let v =
    Json.Obj
      [ ("xs", Json.float_array [| 1.5; 2.5 |]);
        ("name", Json.String "plan");
        ("nested", Json.Obj [ ("deep", Json.List [ Json.Null ]) ]) ]
  in
  Alcotest.(check bool) "pretty output reparses equal" true (parse (str ~pretty:true v) = v)

let test_print_escapes () =
  Alcotest.(check string) "escaped" {|"a\"b\\c\nd"|} (str (Json.String "a\"b\\c\nd"));
  Alcotest.(check string) "control chars" "\"\\u0001\"" (str (Json.String "\001"))

let test_print_numbers () =
  Alcotest.(check string) "integer form" "42" (str (Json.Number 42.));
  Alcotest.(check string) "negative" "-7" (str (Json.Number (-7.)));
  Alcotest.(check bool) "float roundtrips" true
    (parse (str (Json.Number 0.1)) = Json.Number 0.1);
  Alcotest.(check bool) "tiny roundtrips" true
    (parse (str (Json.Number 2.3e-7)) = Json.Number 2.3e-7);
  Alcotest.(check string) "nan becomes null" "null" (str (Json.Number Float.nan));
  Alcotest.(check string) "inf becomes null" "null" (str (Json.Number Float.infinity))

(* ---------------- buffer writers ---------------- *)

let via_buffer add v =
  let buf = Buffer.create 64 in
  add buf v;
  Buffer.contents buf

let test_add_number () =
  let render f = via_buffer Json.add_number f in
  let same f = Alcotest.(check string) (string_of_float f) (str (Json.Number f)) (render f) in
  List.iter same
    [ 0.; 42.; -7.; 0.1; -0.25; 1e6; 123456789.; 1e14; 1e15; 1e16; -1e15; 2.3e-7;
      1e300; Float.max_float; Float.min_float; Float.epsilon ];
  Alcotest.(check string) "negative zero" (str (Json.Number (-0.))) (render (-0.));
  Alcotest.(check string) "nan is null" "null" (render Float.nan);
  Alcotest.(check string) "inf is null" "null" (render Float.infinity);
  Alcotest.(check string) "-inf is null" "null" (render Float.neg_infinity)

let test_add_json_compact () =
  let v =
    Json.Obj
      [ ("a", Json.List [ Json.Number 1.; Json.Bool true; Json.String "x\"\n" ]);
        ("b", Json.Null);
        ("", Json.Obj []) ]
  in
  Alcotest.(check string) "matches to_string" (str v) (via_buffer Json.add_json v);
  Alcotest.(check string) "escaped string" (str (Json.String "a\001b\\"))
    (via_buffer Json.add_escaped "a\001b\\")

(* ---------------- the Printf oracle ---------------- *)

(* The number printer as it was written with [Printf], kept as the
   oracle the C-formatter version must match byte for byte. *)
let oracle_number_to_string f =
  if not (Float.is_finite f) then "null"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else begin
    let s = Printf.sprintf "%.17g" f in
    let shorter = Printf.sprintf "%.12g" f in
    if float_of_string shorter = f then shorter else s
  end

let rec oracle_add_digits buf i =
  if i >= 10 then oracle_add_digits buf (i / 10);
  Buffer.add_char buf (Char.unsafe_chr (Char.code '0' + (i mod 10)))

(* [add_number] as it was written, rendered to a string; [number] is
   [oracle_number_to_string f], computed once per draw. *)
let oracle_add_number ~number f =
  if Float.is_integer f && Float.abs f < 1e15 then
    if f = 0. then if 1. /. f < 0. then "-0" else "0"
    else begin
      let buf = Buffer.create 24 in
      if f < 0. then Buffer.add_char buf '-';
      oracle_add_digits buf (int_of_float (Float.abs f));
      Buffer.contents buf
    end
  else number

(* Draws: random 64-bit patterns (NaNs, infinities and about 1 in 2048
   subnormals among them), random subnormal mantissas, and decimals of
   1-15 significant digits at exponents -300..300 with their +-1 and
   +-2 ulp neighbours — the values whose [%.17g] digit tails sit at
   and next to 00000 / 99999, where the [%.12g] test must still run. *)
let oracle_draws = 1_000_000

let number_draws () =
  let rng = Random.State.make [| 2014 |] in
  let specials =
    [ 0.; -0.; Float.max_float; -.Float.max_float; Float.min_float; -.Float.min_float;
      Int64.float_of_bits 1L; Int64.float_of_bits 0x000f_ffff_ffff_ffffL; 1e15; -1e15;
      1e16; 0.1; 0.2; 0.3; 1. /. 3.; Float.epsilon; Float.nan; Float.infinity;
      Float.neg_infinity ]
  in
  let bits = List.init 400_000 (fun _ -> Int64.float_of_bits (Random.State.bits64 rng)) in
  let subnormals =
    List.init 50_000 (fun _ ->
        let m = Int64.logand (Random.State.bits64 rng) 0x800f_ffff_ffff_ffffL in
        Int64.float_of_bits m)
  in
  let decimals =
    List.concat
      (List.init 110_000 (fun _ ->
           let digits = 1 + Random.State.int rng 15 in
           let mantissa =
             String.init digits (fun i ->
                 if i = 0 then Char.chr (Char.code '1' + Random.State.int rng 9)
                 else Char.chr (Char.code '0' + Random.State.int rng 10))
           in
           let exponent = Random.State.int rng 601 - 300 in
           let sign = if Random.State.bool rng then "-" else "" in
           let d = float_of_string (Printf.sprintf "%s%se%d" sign mantissa exponent) in
           [ d; Float.succ d; Float.pred d; Float.succ (Float.succ d);
             Float.pred (Float.pred d) ]))
  in
  specials @ bits @ subnormals @ decimals

let test_number_oracle () =
  let draws = number_draws () in
  Alcotest.(check bool) "at least 10^6 draws" true (List.length draws >= oracle_draws);
  let mismatches = ref 0 and first = ref None in
  let buf = Buffer.create 32 in
  List.iter
    (fun f ->
      Buffer.clear buf;
      Json.add_number buf f;
      let expected = oracle_number_to_string f in
      if
        str (Json.Number f) <> expected
        || Buffer.contents buf <> oracle_add_number ~number:expected f
      then begin
        incr mismatches;
        if !first = None then first := Some f
      end)
    draws;
  match !first with
  | None -> ()
  | Some f ->
      Alcotest.failf "%d of %d draws differ from the Printf oracle, first %h (%s vs %s)"
        !mismatches (List.length draws) f (str (Json.Number f)) (oracle_number_to_string f)

(* ---------------- the digit generator at the edges of its proof ---------------- *)

module Float_digits = Ckpt_json.Float_digits

(* The conversions [Float_digits] renders: [%.{p-1}e] for p = 1..17 (the
   cache key's [%.8e] among them), [%.17g] and [%.12g]. *)
type conversion = E of int | G of int

let precision = function E p | G p -> p

let printf_render conv f =
  match conv with
  | E p -> Printf.sprintf "%.*e" (p - 1) f
  | G p -> Printf.sprintf "%.*g" p f

(* The rendering from proved digits, or [None] where [scale] leaves the
   float to libc. *)
let digits_render buf conv f =
  let p = precision conv in
  let s = Float_digits.scale p f in
  if s = Float_digits.no_scale then None
  else begin
    Buffer.clear buf;
    let n = Float_digits.digits f s in
    (match conv with
     | E _ -> Float_digits.add_e buf p f n s
     | G _ -> Float_digits.add_g buf p f n s);
    Some (Buffer.contents buf)
  end

let rec int_pow b k = if k = 0 then 1 else b * int_pow b (k - 1)
let pow10_int = int_pow 10

let with_neighbours f =
  [ f; Float.succ f; Float.pred f; Float.succ (Float.succ f); Float.pred (Float.pred f) ]

(* Floats aimed at the edges of the proof for p significant digits, each
   with its +-1 and +-2 ulp neighbours where that matters:
   - exact decimal ties d...d5 10^k at p digits: (10 m + 5) 10^z for a
     p-digit m (exact below 2^53), and a 2^-j for odd a, whose decimal
     expansion a 5^j 10^-j ends in its (p+1)th digit, a 5;
   - 10^k, where the decade estimate is off by one, and 9...95 10^k,
     where the p-digit rounding carries to 10^p, for every decade the
     scaling branches reach and a few beyond;
   - random floats in the decades of the branch bounds
     s = -23, -22, -1, 0, 22, 23, 44, 45;
   - log-uniform floats over 1e-50..1e50, random bit patterns,
     subnormals, [min_float] and [max_float]. *)
let edge_floats rng p =
  let uniform () = Random.State.float rng 1. in
  let p_digit () = pow10_int (p - 1) + Random.State.full_int rng (9 * pow10_int (p - 1)) in
  let integer_ties =
    List.init 2_000 (fun _ ->
        let z = if p + 1 <= 15 then Random.State.int rng (16 - p) else 0 in
        Float.of_int (((10 * p_digit ()) + 5) * pow10_int z))
  in
  let fraction_ties =
    List.init 2_000 (fun _ ->
        let rec draw () =
          let j = 1 + Random.State.int rng 26 in
          let five_j = int_pow 5 j in
          let lo = (pow10_int p + five_j - 1) / five_j
          and hi = min ((pow10_int (p + 1) - 1) / five_j) ((1 lsl 53) - 1) in
          if lo > hi then draw ()
          else
            let a = lo + Random.State.full_int rng (hi - lo + 1) in
            let a = if a land 1 = 1 then a else if a < hi then a + 1 else a - 1 in
            if a < lo then draw () else Float.ldexp (Float.of_int a) (-j)
        in
        draw ())
  in
  let decades = List.init 111 (fun i -> i - 55) in
  let powers = List.map (fun k -> float_of_string (Printf.sprintf "1e%d" k)) decades in
  let carries =
    List.map
      (fun k -> float_of_string (Printf.sprintf "%s5e%d" (String.make p '9') (k - p)))
      decades
  in
  let branch_bounds =
    List.concat_map
      (fun s ->
        let k = p - 1 - s in
        List.init 400 (fun _ ->
            float_of_string (Printf.sprintf "%.17ge%d" (1. +. (9. *. uniform ())) k)))
      [ -23; -22; -1; 0; 22; 23; 44; 45 ]
  in
  let log_uniform = List.init 25_000 (fun _ -> 10. ** ((100. *. uniform ()) -. 50.)) in
  let bits = List.init 5_000 (fun _ -> Int64.float_of_bits (Random.State.bits64 rng)) in
  let subnormals =
    List.init 1_000 (fun _ ->
        Int64.float_of_bits (Int64.logand (Random.State.bits64 rng) 0x000f_ffff_ffff_ffffL))
  in
  let specials =
    [ Float.min_float; Float.pred Float.min_float; Float.max_float; Float.pred Float.max_float ]
  in
  List.concat_map with_neighbours (integer_ties @ fraction_ties @ powers @ carries)
  @ branch_bounds @ log_uniform @ bits @ subnormals @ specials

let test_digits_oracle () =
  let rng = Random.State.make [| 24 |] in
  let buf = Buffer.create 32 in
  let draws = ref 0 and proved = ref 0 in
  List.iter
    (fun conv ->
      List.iter
        (fun f ->
          let f = if Random.State.bool rng then -.f else f in
          incr draws;
          match digits_render buf conv f with
          | None -> ()
          | Some got ->
              incr proved;
              let want = printf_render conv f in
              if got <> want then
                Alcotest.failf "%s of %h: %s, Printf gives %s"
                  (match conv with
                   | E p -> Printf.sprintf "%%.%de" (p - 1)
                   | G p -> Printf.sprintf "%%.%dg" p)
                  f got want)
        (edge_floats rng (precision conv)))
    (List.init 17 (fun i -> E (i + 1)) @ [ G 17; G 12 ]);
  Alcotest.(check bool) "at least 10^6 draws" true (!draws >= 1_000_000);
  (* Most draws are in range, off the ties: a generator that proved
     nothing would pass the comparison vacuously. *)
  Printf.printf "%d of %d draws proved\n" !proved !draws;
  Alcotest.(check bool) "at least half the draws proved" true (!proved * 2 >= !draws);
  let refused p f =
    Alcotest.(check int)
      (Printf.sprintf "no digits for %h at p %d" f p)
      Float_digits.no_scale (Float_digits.scale p f)
  in
  List.iter
    (fun f ->
      for p = 1 to 17 do
        refused p f
      done)
    [ Float.max_float; Float.pred Float.min_float; Int64.float_of_bits 1L; 0.; 1e300;
      1e-300; Float.nan; Float.infinity ];
  (* Exact ties: 2.5 at one digit, 0.125 at two, 1234567890123456.5 at
     sixteen. *)
  refused 1 2.5;
  refused 2 0.125;
  refused 16 1234567890123456.5

(* ---------------- served floats take the proved path ---------------- *)

module Optimizer = Ckpt_model.Optimizer
module Codec = Ckpt_model.Codec
module Multilevel = Ckpt_model.Multilevel
module Paper_data = Ckpt_experiments.Paper_data
module Fingerprint = Ckpt_service.Fingerprint

(* The six Table II plans (te 3e6 core-days) and the 96-problem grid:
   the six rate cases at te {1e5, 5e5, 3e6, 1e7} core-days and alloc
   {10, 60, 300, 600} s. *)
let table2_plans () =
  let cases = Paper_data.cases in
  let table2 = List.map (fun case -> Paper_data.eval_problem ~te_core_days:3e6 ~case ()) cases in
  let grid =
    List.concat_map
      (fun case ->
        List.concat_map
          (fun te_core_days ->
            List.map
              (fun alloc -> { (Paper_data.eval_problem ~te_core_days ~case ()) with Optimizer.alloc })
              [ 10.; 60.; 300.; 600. ])
          [ 1e5; 5e5; 3e6; 1e7 ])
      cases
  in
  Array.to_list
    (Optimizer.solve_batch (Array.of_list (List.map Optimizer.batch_job (table2 @ grid))))

(* The 16 non-integral floats a served plan prints. *)
let plan_floats (p : Optimizer.plan) =
  let b = p.Optimizer.breakdown in
  Array.to_list p.Optimizer.xs
  @ [ p.Optimizer.n; p.Optimizer.wall_clock ]
  @ Array.to_list p.Optimizer.mus
  @ [ b.Multilevel.productive; b.Multilevel.checkpoint; b.Multilevel.restart;
      b.Multilevel.allocation; b.Multilevel.rollback; p.Optimizer.efficiency ]

(* A free-scale problem as the server sees them: a Table II rate pattern
   scaled 0.5-2x at a quadratic speedup's peak, FTI levels. *)
let draw_free_problem rng =
  let uniform lo hi = lo +. Random.State.float rng (hi -. lo) in
  let log_uniform lo hi = exp (uniform (log lo) (log hi)) in
  let cases = Array.of_list Paper_data.cases in
  let n_star = log_uniform 2e5 2e6 in
  let factor = uniform 0.5 2. in
  let case = cases.(Random.State.int rng (Array.length cases)) in
  let rates = (Ckpt_failures.Failure_spec.of_string case).Ckpt_failures.Failure_spec.rates_per_day in
  { Optimizer.te = log_uniform 5e5 5e6 *. 86_400.;
    speedup = Ckpt_model.Speedup.quadratic ~kappa:(uniform 0.35 0.6) ~n_star;
    levels = Ckpt_model.Level.fti_fusion;
    alloc = uniform 20. 120.;
    spec =
      Ckpt_failures.Failure_spec.v ~baseline_scale:n_star (Array.map (( *. ) factor) rates) }

let test_served_floats_proved () =
  (* The counter is live: a subnormal goes to libc, twice. *)
  let before = Float_digits.fallbacks () in
  ignore (Json.number_to_string 5e-324);
  Alcotest.(check int) "a subnormal takes the libc branch" 2 (Float_digits.fallbacks () - before);
  let plans = table2_plans () in
  Alcotest.(check int) "Table II plans and the grid" 102 (List.length plans);
  let buf = Buffer.create 1024 in
  let before = Float_digits.fallbacks () in
  List.iter (fun plan -> Codec.write_plan buf plan) plans;
  Alcotest.(check int) "plan floats through libc" 0 (Float_digits.fallbacks () - before);
  List.iter
    (fun plan ->
      List.iter
        (fun f ->
          Alcotest.(check string) "plan float as Printf prints it" (oracle_number_to_string f)
            (Json.number_to_string f))
        (plan_floats plan))
    plans;
  let rng = Random.State.make [| 1000 |] in
  let problems = List.init 1_000 (fun _ -> draw_free_problem rng) in
  let before = Float_digits.fallbacks () in
  List.iter (fun p -> ignore (Fingerprint.canonical p)) problems;
  ignore (Fingerprint.float_repr ~precision:Fingerprint.default_precision 1e-9);
  Alcotest.(check int) "key floats through libc" 0 (Float_digits.fallbacks () - before)

(* ---------------- reading: [Float_digits.read] against [float_of_string] ---------------- *)

(* Exact decimal digits of the midpoint between a positive normal double
   and its successor, (2 mant + 1) 2^(e2 - 1) for x = mant 2^e2: an
   integer in base-10^9 limbs (least significant first) and the power of
   ten it is scaled by. *)
let midpoint_digits x =
  let mant = Int64.to_int (Int64.logand (Int64.bits_of_float x) 0x000f_ffff_ffff_ffffL) in
  let biased = Int64.to_int (Int64.shift_right_logical (Int64.bits_of_float x) 52) land 0x7ff in
  let mant = mant lor (1 lsl 52) and e2 = biased - 1075 - 1 in
  let limbs = ref [| (2 * mant) + 1 |] in
  let mul k =
    let carry = ref 0 in
    let out =
      Array.map
        (fun l ->
          let v = (l * k) + !carry in
          carry := v / 1_000_000_000;
          v mod 1_000_000_000)
        !limbs
    in
    let rest = ref [] in
    while !carry > 0 do
      rest := (!carry mod 1_000_000_000) :: !rest;
      carry := !carry / 1_000_000_000
    done;
    limbs := Array.append out (Array.of_list (List.rev !rest))
  in
  (* Normalise the first limb, which may exceed 10^9. *)
  mul 1;
  let rec times base per count =
    if count > 0 then begin
      let k = min per count in
      mul (int_of_float (float_of_int base ** float_of_int k));
      times base per (count - k)
    end
  in
  if e2 >= 0 then (times 2 30 e2; (!limbs, 0))
  else (times 5 13 (-e2); (!limbs, e2))

let digit_string (limbs, _) =
  let n = Array.length limbs in
  String.concat ""
    (Printf.sprintf "%d" limbs.(n - 1)
     :: List.init (n - 1) (fun i -> Printf.sprintf "%09d" limbs.(n - 2 - i)))

(* The midpoint above [x] cut to [n] significant digits, and the same
   digits with their last one stepped by -1 and +1, as "d.ddd...e+k". *)
let midpoint_spans x n =
  let ((_, pow) as digits) = midpoint_digits x in
  let all = digit_string digits in
  let n = min n (String.length all) in
  let cut = String.sub all 0 n in
  let k = String.length all - 1 + pow in
  let render d = Printf.sprintf "%c.%se%d" d.[0] (String.sub d 1 (String.length d - 1)) k in
  let step by =
    (* Decimal +-1 on the last digit, carrying; None where it would
       change the digit count. *)
    let b = Bytes.of_string cut in
    let rec go i =
      if i < 0 then false
      else
        let c = Char.code (Bytes.get b i) - 48 + by in
        if c < 0 then (Bytes.set b i '9'; go (i - 1))
        else if c > 9 then (Bytes.set b i '0'; go (i - 1))
        else (Bytes.set b i (Char.chr (48 + c)); true)
    in
    if go (n - 1) && Bytes.get b 0 <> '0' then Some (render (Bytes.to_string b)) else None
  in
  render cut :: List.filter_map Fun.id [ step (-1); step 1 ]

(* At least 10^6 spans: [%.17g], [%.12g] and [%.8e] renderings of
   log-uniform and bit-pattern doubles; the midpoints between adjacent
   doubles cut to 17-25 digits with +-1 in the last; exact ties written
   in 17-19 digits; 16-19-digit significands at exponents -23, -22, 22
   and 23; subnormals, [max_float] and hand-picked spellings. *)
let read_spans () =
  let rng = Random.State.make [| 1990 |] in
  let renderings f =
    [ Printf.sprintf "%.17g" f; Printf.sprintf "%.12g" f; Printf.sprintf "%.8e" f ]
  in
  let log_uniform =
    List.concat
      (List.init 150_000 (fun _ ->
           let f = 10. ** ((80. *. Random.State.float rng 1.) -. 40.) in
           renderings (if Random.State.bool rng then -.f else f)))
  in
  let bits =
    List.concat
      (List.init 100_000 (fun _ -> renderings (Int64.float_of_bits (Random.State.bits64 rng))))
  in
  let midpoints =
    List.concat
      (List.init 20_000 (fun _ ->
           let x = 10. ** ((60. *. Random.State.float rng 1.) -. 30.) in
           List.concat_map (midpoint_spans x) (List.init 9 (fun i -> 17 + i))))
  in
  let long_significands =
    List.init 60_000 (fun i ->
        let digits = 16 + Random.State.int rng 4 in
        let m =
          String.init digits (fun j ->
              if j = 0 then Char.chr (49 + Random.State.int rng 9)
              else Char.chr (48 + Random.State.int rng 10))
        in
        Printf.sprintf "%s%se%d" (if i land 1 = 0 then "" else "-") m
          (List.nth [ -23; -22; 22; 23 ] (Random.State.int rng 4)))
  in
  let subnormals =
    List.concat
      (List.init 5_000 (fun _ ->
           renderings
             (Int64.float_of_bits
                (Int64.logand (Random.State.bits64 rng) 0x000f_ffff_ffff_ffffL))))
  in
  let specials =
    [ "00012"; "-0"; "1."; "-.5"; "1E+05"; "1e999"; "1e-400"; "0e999999999999"; "0.000";
      "+7"; "9007199254740993"; "9007199254740992"; "9007199254740991";
      "4611686018427387904"; "4611686018427387903"; "9999999999999999999";
      "1.7976931348623157e308"; "1.7976931348623159e308"; "2.2250738585072014e-308";
      "4.9406564584124654e-324"; "1e22"; "1e23"; "1e37"; "1e-22"; "1e-23";
      "123456789012345678901234567890"; "0.1"; "1.00000000000000000000000001" ]
    @ renderings Float.max_float @ renderings Float.min_float
    (* 2^53 + 1, the first significand past the one-operation path, at
       every exponent it takes: rounding it to a double first would
       round twice. *)
    @ List.init 45 (fun k -> Printf.sprintf "9007199254740993e%d" (k - 22))
  in
  (* Exact ties m 10^e with 2^53 < m <= max_int: for an odd o with
     o 5^e in [2^53, 2^54) and m = o 2^j, m 10^e = (o 5^e) 2^(j+e) is an
     odd multiple of half the gap between the doubles around it.  Below
     e = 0 the same holds for m = 5^k o 2^j with a 54-bit odd o, which
     fits m only for k <= 3.  A shifted m that reads back is in range. *)
  let ties : string list =
    let rec pow5 k = if k = 0 then 1 else 5 * pow5 (k - 1) in
    let odd lo hi = (lo + Random.State.full_int rng (hi - lo)) lor 1 in
    List.concat
      (List.init 22 (fun i ->
           let e = i + 1 in
           let p5 = pow5 e in
           let lo = ((1 lsl 53) + p5 - 1) / p5 and hi = (1 lsl 54) / p5 in
           List.concat
             (List.init 2_000 (fun _ ->
                  let o = odd lo hi in
                  let o = if o * p5 >= 1 lsl 54 then o - 2 else o in
                  List.filter_map
                    (fun j ->
                      let m = o lsl j in
                      if m > 1 lsl 53 && m asr j = o then
                        Some (Printf.sprintf "%de%d" m e)
                      else None)
                    (List.init 62 Fun.id)))))
    @ List.concat
        (List.init 3 (fun i ->
             let k = i + 1 in
             List.concat
               (List.init 2_000 (fun _ ->
                    let o = odd (1 lsl 53) (1 lsl 54) in
                    List.filter_map
                      (fun j ->
                        let m = (o * pow5 k) lsl j in
                        if m > 0 && m asr j = o * pow5 k then
                          Some (Printf.sprintf "%de-%d" m k)
                        else None)
                      [ 0; 1; 2 ]))))
  in
  specials @ ties @ log_uniform @ bits @ midpoints @ long_significands @ subnormals

let read_string s = Float_digits.read s 0 (String.length s)

let test_read_oracle () =
  let spans = read_spans () in
  Alcotest.(check bool) "at least 10^6 spans" true (List.length spans >= 1_000_000);
  let mismatches = ref 0 and first = ref None in
  List.iter
    (fun s ->
      let want = float_of_string_opt s in
      let got = match read_string s with f -> Some f | exception Failure _ -> None in
      let same =
        match (want, got) with
        | Some a, Some b -> Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
        | None, None -> true
        | _ -> false
      in
      if not same then begin
        incr mismatches;
        if !first = None then first := Some s
      end)
    spans;
  (match !first with
   | None -> ()
   | Some s ->
       Alcotest.failf "%d of %d spans read other than float_of_string, first %S (%s vs %s)"
         !mismatches (List.length spans) s
         (match float_of_string_opt s with Some f -> Printf.sprintf "%h" f | None -> "refused")
         (match read_string s with f -> Printf.sprintf "%h" f | exception Failure _ -> "refused"));
  (* Mid-string spans read only their own bytes. *)
  let s = "[12.5e1,-0.25]" in
  Alcotest.(check (float 0.)) "a span inside a line" 125. (Float_digits.read s 1 7);
  Alcotest.(check (float 0.)) "the next span" (-0.25) (Float_digits.read s 8 13);
  Alcotest.(check bool) "-0 is negative zero" true
    (Int64.equal (Int64.bits_of_float (read_string "-0")) (Int64.bits_of_float (-0.)))

let test_read_refusals () =
  List.iter
    (fun s ->
      Alcotest.(check bool) (Printf.sprintf "float_of_string refuses %S" s) true
        (float_of_string_opt s = None);
      match read_string s with
      | f -> Alcotest.failf "read %S gave %h" s f
      | exception Failure m -> Alcotest.(check string) "the same failure" "float_of_string" m)
    [ "-"; "--1"; "1e"; "1e+"; "1.2.3"; ""; "."; "-."; "e5"; ".e5"; "+-1"; "1-"; "1e5.5";
      "1e-"; "1ee5"; "1.5.e3" ];
  (* Characters beyond the decimal grammar go to strtod, as
     [float_of_string] would take them. *)
  List.iter
    (fun s ->
      Alcotest.(check bool) (Printf.sprintf "%S as float_of_string reads it" s) true
        (match (float_of_string_opt s, read_string s) with
         | Some a, b -> Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
         | None, _ -> false
         | exception Failure _ -> float_of_string_opt s = None))
    [ "1_000.5"; "0x1p3"; "-inf"; "nan"; " 1.5"; "_5"; "1e_5" ]

(* The numbers of a JSON text, as the tree lexer cuts them. *)
let number_spans text =
  let spans = ref [] and i = ref 0 in
  let n = String.length text in
  while !i < n do
    match text.[!i] with
    | '"' ->
        incr i;
        while text.[!i] <> '"' do
          if text.[!i] = '\\' then incr i;
          incr i
        done;
        incr i
    | '-' | '0' .. '9' ->
        let start = !i in
        while
          !i < n
          && match text.[!i] with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
        do
          incr i
        done;
        spans := (start, !i) :: !spans
    | _ -> incr i
  done;
  List.rev !spans

let test_served_numbers_read () =
  let plans = table2_plans () in
  let rng = Random.State.make [| 1000 |] in
  let problems =
    List.init 6 (fun i -> Paper_data.eval_problem ~te_core_days:3e6 ~case:(List.nth Paper_data.cases i) ())
    @ List.init 1_000 (fun _ -> draw_free_problem rng)
  in
  let buf = Buffer.create 1024 in
  let texts =
    List.map
      (fun plan ->
        Buffer.clear buf;
        Codec.write_plan buf plan;
        Buffer.contents buf)
      plans
    @ List.map (fun p -> Json.to_string (Codec.problem_to_json p)) problems
  in
  let spans = List.concat_map (fun t -> List.map (fun sp -> (t, sp)) (number_spans t)) texts in
  Alcotest.(check bool) "thousands of served numbers" true (List.length spans > 20_000);
  let before = Float_digits.fallbacks () in
  let differ =
    List.filter
      (fun (t, (a, b)) ->
        not
          (Int64.equal
             (Int64.bits_of_float (Float_digits.read t a b))
             (Int64.bits_of_float (float_of_string (String.sub t a (b - a))))))
      spans
  in
  (* [float_of_string] above is not counted: only [read]'s strtod is. *)
  Alcotest.(check int) "served numbers through strtod" 0 (Float_digits.fallbacks () - before);
  Alcotest.(check int) "served numbers read as float_of_string reads them" 0 (List.length differ);
  let before = Float_digits.fallbacks () in
  List.iter (fun t -> ignore (Json.parse t)) texts;
  Alcotest.(check int) "the tree parser reads them without strtod" 0
    (Float_digits.fallbacks () - before);
  (* The counter is live: a 20-digit significand goes to strtod, once. *)
  let before = Float_digits.fallbacks () in
  ignore (read_string "12345678901234567891");
  Alcotest.(check int) "a hard span takes strtod" 1 (Float_digits.fallbacks () - before)

(* ---------------- accessors ---------------- *)

let test_accessors () =
  let v = parse {|{"n": 3, "f": 2.5, "s": "x", "b": true, "l": [1], "o": {}}|} in
  Alcotest.(check (option int)) "int" (Some 3) (Option.bind (Json.member "n" v) Json.to_int);
  Alcotest.(check (option (float 0.))) "float" (Some 2.5) (Json.float_field "f" v);
  Alcotest.(check (option string)) "string" (Some "x") (Json.string_field "s" v);
  Alcotest.(check bool) "bool" true (Option.bind (Json.member "b" v) Json.to_bool = Some true);
  Alcotest.(check bool) "list" true (Json.list_field "l" v = Some [ Json.Number 1. ]);
  Alcotest.(check bool) "missing" true (Json.member "zzz" v = None);
  Alcotest.(check bool) "int rejects fraction" true
    (Option.bind (Json.member "f" v) Json.to_int = None)

let test_float_array () =
  let arr = [| 1.; 2.5; -3. |] in
  Alcotest.(check bool) "roundtrip" true (Json.of_float_array (Json.float_array arr) = Some arr);
  Alcotest.(check bool) "mixed rejected" true
    (Json.of_float_array (Json.List [ Json.Number 1.; Json.Bool true ]) = None)

let test_roundtrips () =
  List.iter check_roundtrip
    [ "null"; "[1,2,3]"; {|{"a":{"b":{"c":[]}}}|}; {|"unicode: é中"|};
      "[0.1,1e300,-2.5e-10]"; {|{"mixed":[null,true,1,"s",[],{}]}|} ]

(* ---------------- properties ---------------- *)

let json_gen =
  let open QCheck.Gen in
  sized (fun n ->
      fix
        (fun self n ->
          if n <= 0 then
            oneof
              [ return Json.Null;
                map (fun b -> Json.Bool b) bool;
                map (fun f -> Json.Number f) (float_bound_inclusive 1e6);
                map (fun s -> Json.String s) (string_size ~gen:printable (int_range 0 10)) ]
          else
            oneof
              [ map (fun l -> Json.List l) (list_size (int_range 0 4) (self (n / 2)));
                map
                  (fun pairs -> Json.Obj pairs)
                  (list_size (int_range 0 4)
                     (pair (string_size ~gen:printable (int_range 1 6)) (self (n / 2)))) ])
        (Int.min n 4))

let any_float =
  QCheck.Gen.oneof
    [ QCheck.Gen.float;
      QCheck.Gen.map float_of_int QCheck.Gen.int;
      QCheck.Gen.oneofl [ 0.; -0.; 1e15; -1e15; 1e16; Float.nan; Float.infinity ] ]

let qcheck_tests =
  let open QCheck in
  [ Test.make ~name:"print/parse roundtrips" ~count:300 (make json_gen) (fun v ->
        Json.parse (Json.to_string v) = v);
    Test.make ~name:"pretty print/parse roundtrips" ~count:300 (make json_gen) (fun v ->
        Json.parse (Json.to_string ~pretty:true v) = v);
    Test.make ~name:"add_json matches compact to_string" ~count:300 (make json_gen)
      (fun v ->
        let buf = Buffer.create 64 in
        Json.add_json buf v;
        Buffer.contents buf = Json.to_string v);
    Test.make ~name:"add_number matches to_string on any float" ~count:500
      (make any_float) (fun f ->
        let buf = Buffer.create 32 in
        Json.add_number buf f;
        Buffer.contents buf = Json.to_string (Json.Number f)) ]

let () =
  Alcotest.run "ckpt_json"
    [ ( "parse",
        [ Alcotest.test_case "scalars" `Quick test_parse_scalars;
          Alcotest.test_case "structures" `Quick test_parse_structures;
          Alcotest.test_case "whitespace" `Quick test_parse_whitespace;
          Alcotest.test_case "escapes" `Quick test_parse_escapes;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "error position" `Quick test_parse_error_position;
          Alcotest.test_case "error positions and messages" `Quick test_parse_error_messages ] );
      ( "print",
        [ Alcotest.test_case "compact" `Quick test_print_compact;
          Alcotest.test_case "pretty reparses" `Quick test_print_pretty_reparses;
          Alcotest.test_case "escapes" `Quick test_print_escapes;
          Alcotest.test_case "numbers" `Quick test_print_numbers ] );
      ( "writers",
        [ Alcotest.test_case "add_number" `Quick test_add_number;
          Alcotest.test_case "Printf oracle" `Quick test_number_oracle;
          Alcotest.test_case "digits at the proof's edges" `Quick test_digits_oracle;
          Alcotest.test_case "served floats proved" `Quick test_served_floats_proved;
          Alcotest.test_case "add_json compact" `Quick test_add_json_compact ] );
      ( "reading",
        [ Alcotest.test_case "float_of_string oracle" `Quick test_read_oracle;
          Alcotest.test_case "refusals" `Quick test_read_refusals;
          Alcotest.test_case "served numbers read in OCaml" `Quick test_served_numbers_read ] );
      ( "accessors",
        [ Alcotest.test_case "fields" `Quick test_accessors;
          Alcotest.test_case "float arrays" `Quick test_float_array;
          Alcotest.test_case "roundtrips" `Quick test_roundtrips ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_tests) ]
