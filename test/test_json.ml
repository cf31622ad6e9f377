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
          Alcotest.test_case "error position" `Quick test_parse_error_position ] );
      ( "print",
        [ Alcotest.test_case "compact" `Quick test_print_compact;
          Alcotest.test_case "pretty reparses" `Quick test_print_pretty_reparses;
          Alcotest.test_case "escapes" `Quick test_print_escapes;
          Alcotest.test_case "numbers" `Quick test_print_numbers ] );
      ( "writers",
        [ Alcotest.test_case "add_number" `Quick test_add_number;
          Alcotest.test_case "Printf oracle" `Quick test_number_oracle;
          Alcotest.test_case "add_json compact" `Quick test_add_json_compact ] );
      ( "accessors",
        [ Alcotest.test_case "fields" `Quick test_accessors;
          Alcotest.test_case "float arrays" `Quick test_float_array;
          Alcotest.test_case "roundtrips" `Quick test_roundtrips ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_tests) ]
