(* Zero-tree wire fastpath for the hot protocol shapes.

   Decode: a scanner over the raw line that builds [Protocol.query]
   values directly — no [Json.t] tree — for the three solver-bound ops
   (plan, batch-plan, sweep).  It accepts a strict subset of what the
   tree parser accepts: any deviation (escape sequences, unknown fields,
   duplicate keys, another op, shape or validation errors) raises
   [Slow] and the caller falls back to [Protocol.parse_request], so
   observable behaviour is always tree-equal — the fast path only ever
   short-circuits lines the tree parser would have answered [Ok].
   Numbers are read by [Float_digits.read] over the same character span
   the tree parser's number lexer cuts, so every float is bit-identical.

   The scanner allocates only what it returns.  Each object is read by a
   loop into local slots (the compiler keeps them in registers, where a
   closure per field would capture them in heap cells), keys and enum
   strings are compared in place, a bit per field catches duplicates,
   and an [op] that names another op stops the scan at once.

   Encode: streaming writers for the matching responses, byte-identical
   to [Json.to_string (Protocol.*_response ...)], reusing the caller's
   buffer. *)

open Ckpt_model
module Json = Ckpt_json.Json
module Float_digits = Ckpt_json.Float_digits
module Failure_spec = Ckpt_failures.Failure_spec

exception Slow

(* The line, the position, and the span of the last string value
   [scan_span] found (a level name or a string id, the strings that are
   cut out of the line). *)
type scan = { s : string; mutable pos : int; mutable span : int; mutable span_len : int }

let len sc = String.length sc.s

(* The scanning loops run on a local index and store the position once:
   a mutable field read and written per byte is a load and a store per
   byte. *)
let skip_ws sc =
  let i = ref sc.pos in
  while
    !i < len sc
    &&
    match String.unsafe_get sc.s !i with
    | ' ' | '\t' | '\n' | '\r' -> true
    | _ -> false
  do
    incr i
  done;
  sc.pos <- !i

let[@inline] peek sc = if sc.pos < len sc then String.unsafe_get sc.s sc.pos else '\000'

(* Whether [c] is next, whitespace skipped, and consumes it if so.
   Protocol lines are compact: the first test is usually the answer. *)
let[@inline] eat sc c =
  if sc.pos < len sc && String.unsafe_get sc.s sc.pos = c then begin
    sc.pos <- sc.pos + 1;
    true
  end
  else begin
    skip_ws sc;
    if sc.pos < len sc && String.unsafe_get sc.s sc.pos = c then begin
      sc.pos <- sc.pos + 1;
      true
    end
    else false
  end

let[@inline] expect sc c = if not (eat sc c) then raise Slow

(* A string with no escapes, its opening quote consumed: its span is
   left in [span], [span_len].  Escapes are rare in protocol traffic —
   leave them to the tree. *)
let scan_span sc =
  let start = sc.pos in
  let i = ref start in
  while
    !i < len sc && match String.unsafe_get sc.s !i with '"' | '\\' -> false | _ -> true
  do
    incr i
  done;
  if !i >= len sc || String.unsafe_get sc.s !i = '\\' then raise Slow;
  sc.span <- start;
  sc.span_len <- !i - start;
  sc.pos <- !i + 1

let scan_string sc =
  expect sc '"';
  scan_span sc

(* Whether the next bytes are [lit]; consumes them if so. *)
let literal sc lit =
  let n = String.length lit in
  sc.pos + n <= len sc
  &&
  let i = ref 0 in
  while !i < n && String.unsafe_get sc.s (sc.pos + !i) = String.unsafe_get lit !i do
    incr i
  done;
  !i = n
  &&
  (sc.pos <- sc.pos + n;
   true)

(* Inside a string whose opening quote is consumed: whether it reads
   [lit], compared in place; consumes it and the closing quote if so.  A
   string with an escape matches no literal. *)
let word sc lit =
  let n = String.length lit in
  sc.pos + n < len sc
  && String.unsafe_get sc.s (sc.pos + n) = '"'
  &&
  let i = ref 0 in
  while !i < n && String.unsafe_get sc.s (sc.pos + !i) = String.unsafe_get lit !i do
    incr i
  done;
  !i = n
  &&
  (sc.pos <- sc.pos + n + 1;
   true)

(* A field key, its opening quote consumed: whether it is [lit], and if
   so the ':' after it is consumed too. *)
let[@inline] key sc lit = word sc lit && (expect sc ':'; true)

(* The opening quote of a key or an enum value, whose text {!key} or
   {!word} then matches in place: neither is ever cut out of the line.
   An unknown one matches no literal and sends the line to the tree. *)
let[@inline] opening_quote sc = expect sc '"'

let span_string sc = String.sub sc.s sc.span sc.span_len

let is_number_char c =
  (c >= '0' && c <= '9') || c = '-' || c = '+' || c = '.' || c = 'e' || c = 'E'

(* Same start and span as the tree parser's number lexer, read by the
   same [Float_digits.read]: bit-identical floats by construction.  Like
   the tree, a number must start with '-' or a digit — [float_of_string]
   alone would also take "+5" and ".5", which the tree rejects as not
   JSON.  A span [read] refuses raises [Failure], which sends the line to
   the tree like [Slow]. *)
let scan_number sc =
  (match peek sc with '-' | '0' .. '9' -> () | _ -> skip_ws sc);
  let start = sc.pos in
  (match peek sc with '-' | '0' .. '9' -> () | _ -> raise Slow);
  let i = ref (start + 1) in
  while !i < len sc && is_number_char (String.unsafe_get sc.s !i) do
    incr i
  done;
  sc.pos <- !i;
  Float_digits.read sc.s start !i

(* Opens an object: whether a field follows. *)
let[@inline] first_field sc =
  expect sc '{';
  not (eat sc '}')

(* After a field's value: whether another field follows. *)
let[@inline] next_field sc =
  if eat sc ',' then true
  else begin
    expect sc '}';
    false
  end

(* Marks [bit] in a set of seen fields.  Duplicate keys would shadow
   differently than the tree's first-wins [List.assoc]; bail instead of
   choosing. *)
let[@inline] mark seen bit = if seen land bit <> 0 then raise Slow else seen lor bit

(* The elements of a JSON array, one [item] each, in an array that
   doubles from 4 as needed and is cut to length once at the end. *)
let scan_array sc item =
  expect sc '[';
  if eat sc ']' then [||]
  else begin
    let first = item sc in
    let a = ref (Array.make 4 first) and n = ref 1 in
    while eat sc ',' do
      let x = item sc in
      if !n = Array.length !a then begin
        let b = Array.make (2 * !n) first in
        Array.blit !a 0 b 0 !n;
        a := b
      end;
      Array.unsafe_set !a !n x;
      incr n
    done;
    expect sc ']';
    if !n = Array.length !a then !a else Array.sub !a 0 !n
  end

(* --------------- problem pieces (mirrors Codec.*_of_json) --------------- *)

let scan_overhead sc =
  let seen = ref 0 and eps = ref 0. and alpha = ref 0. and linear = ref false in
  let more = ref (first_field sc) in
  while !more do
    opening_quote sc;
    if key sc "eps" then begin
      seen := mark !seen 1;
      eps := scan_number sc
    end
    else if key sc "alpha" then begin
      seen := mark !seen 2;
      alpha := scan_number sc
    end
    else if key sc "h" then begin
      seen := mark !seen 4;
      opening_quote sc;
      if word sc "N" then linear := true else if not (word sc "0") then raise Slow
    end
    else raise Slow;
    more := next_field sc
  done;
  if !seen <> 7 then raise Slow;
  if !linear && !alpha <> 0. then Overhead.linear ~eps:!eps ~alpha:!alpha
  else Overhead.constant !eps

let no_overhead = Overhead.constant 0.

let scan_level sc =
  let seen = ref 0 and name = ref "" and ckpt = ref no_overhead and restart = ref no_overhead in
  let more = ref (first_field sc) in
  while !more do
    opening_quote sc;
    if key sc "name" then begin
      seen := mark !seen 1;
      scan_string sc;
      name := span_string sc
    end
    else if key sc "ckpt" then begin
      seen := mark !seen 2;
      ckpt := scan_overhead sc
    end
    else if key sc "restart" then begin
      seen := mark !seen 4;
      restart := scan_overhead sc
    end
    else raise Slow;
    more := next_field sc
  done;
  if !seen <> 7 then raise Slow;
  { Level.name = !name; ckpt = !ckpt; restart = !restart }

(* Speedup kinds, as bits of the fields each needs. *)
let kappa_bit = 2 and n_star_bit = 4 and serial_bit = 8 and peak_bit = 16

let scan_speedup sc =
  let seen = ref 0 and kind = ref 0 in
  let kappa = ref 0. and n_star = ref 0. and serial_fraction = ref 0. and peak = ref 0. in
  let more = ref (first_field sc) in
  while !more do
    opening_quote sc;
    if key sc "kind" then begin
      seen := mark !seen 1;
      opening_quote sc;
      kind :=
        if word sc "quadratic" then kappa_bit lor n_star_bit
        else if word sc "linear" then kappa_bit
        else if word sc "amdahl" then serial_bit lor peak_bit lor 32
        else if word sc "gustafson" then serial_bit lor peak_bit
        else raise Slow
    end
    else if key sc "kappa" then begin
      seen := mark !seen kappa_bit;
      kappa := scan_number sc
    end
    else if key sc "n_star" then begin
      seen := mark !seen n_star_bit;
      n_star := scan_number sc
    end
    else if key sc "serial_fraction" then begin
      seen := mark !seen serial_bit;
      serial_fraction := scan_number sc
    end
    else if key sc "peak" then begin
      seen := mark !seen peak_bit;
      peak := scan_number sc
    end
    else raise Slow;
    more := next_field sc
  done;
  (* The kind's own fields must be there; others the tree ignores. *)
  let needs = !kind land 31 in
  if !seen land 1 = 0 || !seen land needs <> needs then raise Slow;
  if needs = kappa_bit lor n_star_bit then Speedup.quadratic ~kappa:!kappa ~n_star:!n_star
  else if needs = kappa_bit then Speedup.linear ~kappa:!kappa
  else if !kind land 32 <> 0 then
    Speedup.amdahl ~serial_fraction:!serial_fraction ~peak:!peak
  else Speedup.gustafson ~serial_fraction:!serial_fraction ~peak:!peak

let no_speedup = Speedup.linear ~kappa:1.
let no_levels = [| Level.v no_overhead |]

let scan_problem sc =
  let seen = ref 0 and te = ref 0. and alloc = ref 0. and baseline_scale = ref 0. in
  let speedup = ref no_speedup and levels = ref no_levels and rates = ref [||] in
  let more = ref (first_field sc) in
  while !more do
    opening_quote sc;
    if key sc "te" then begin
      seen := mark !seen 1;
      te := scan_number sc
    end
    else if key sc "speedup" then begin
      seen := mark !seen 2;
      speedup := scan_speedup sc
    end
    else if key sc "levels" then begin
      seen := mark !seen 4;
      levels := scan_array sc scan_level
    end
    else if key sc "alloc" then begin
      seen := mark !seen 8;
      alloc := scan_number sc
    end
    else if key sc "rates_per_day" then begin
      seen := mark !seen 16;
      rates := scan_array sc scan_number
    end
    else if key sc "baseline_scale" then begin
      seen := mark !seen 32;
      baseline_scale := scan_number sc
    end
    else raise Slow;
    more := next_field sc
  done;
  if !seen <> 63 || Array.length !rates <> Array.length !levels then raise Slow;
  let problem =
    { Optimizer.te = !te;
      speedup = !speedup;
      levels = !levels;
      alloc = !alloc;
      spec = Failure_spec.v ~baseline_scale:!baseline_scale !rates }
  in
  Optimizer.check_problem problem;
  problem

(* The request id can be any JSON value; scalars cover real traffic. *)
let scan_literal sc w v = if literal sc w then v else raise Slow

let scan_id sc =
  skip_ws sc;
  match peek sc with
  | '"' ->
      sc.pos <- sc.pos + 1;
      scan_span sc;
      Json.String (span_string sc)
  | '-' | '0' .. '9' -> Json.Number (scan_number sc)
  | 't' -> scan_literal sc "true" (Json.Bool true)
  | 'f' -> scan_literal sc "false" (Json.Bool false)
  | 'n' -> scan_literal sc "null" Json.Null
  | _ -> raise Slow

(* --------------- requests --------------- *)

let positive f = if not (f > 0.) then raise Slow

(* Scales outside the speedup's positive range are the tree's to refuse,
   with its message. *)
let in_range problem n =
  if not (Protocol.scale_in_range problem.Optimizer.speedup n) then raise Slow

(* The fastpath ops, and the envelope's [op] for each. *)
let plan_op = 1 and batch_op = 2 and sweep_op = 3
let some_plan = Some "plan" and some_batch = Some "batch-plan" and some_sweep = Some "sweep"

let op_bit = 1 and id_bit = 2 and problem_bit = 4 and problems_bit = 8 and solution_bit = 16
and fixed_n_bit = 32 and delta_bit = 64 and param_bit = 128 and values_bit = 256

let no_problem =
  { Optimizer.te = 0.;
    speedup = no_speedup;
    levels = no_levels;
    alloc = 0.;
    spec = Failure_spec.v [| 0. |] }

let no_problems : Optimizer.problem array = [||]
let has seen bit = seen land bit <> 0

let scan_request sc =
  let seen = ref 0 and op = ref 0 and id = ref None in
  let problem = ref no_problem and problems = ref no_problems in
  let solution = ref Protocol.Ml_opt and fixed_n = ref 0. and delta = ref Protocol.default_delta in
  let param = ref Protocol.Scale and values = ref [||] in
  let more = ref (first_field sc) in
  while !more do
    opening_quote sc;
    if key sc "op" then begin
      seen := mark !seen op_bit;
      opening_quote sc;
      (* Any other op is the tree's: stop here rather than scan on. *)
      op :=
        if word sc "plan" then plan_op
        else if word sc "batch-plan" then batch_op
        else if word sc "sweep" then sweep_op
        else raise Slow
    end
    else if key sc "id" then begin
      seen := mark !seen id_bit;
      id := Some (scan_id sc)
    end
    else if key sc "problem" then begin
      seen := mark !seen problem_bit;
      problem := scan_problem sc
    end
    else if key sc "problems" then begin
      seen := mark !seen problems_bit;
      problems := scan_array sc scan_problem
    end
    else if key sc "solution" then begin
      seen := mark !seen solution_bit;
      opening_quote sc;
      solution :=
        if word sc "ml-opt" then Protocol.Ml_opt
        else if word sc "ml-ori" then Protocol.Ml_ori
        else if word sc "sl-opt" then Protocol.Sl_opt
        else if word sc "sl-ori" then Protocol.Sl_ori
        else raise Slow
    end
    else if key sc "fixed_n" then begin
      seen := mark !seen fixed_n_bit;
      fixed_n := scan_number sc;
      positive !fixed_n
    end
    else if key sc "delta" then begin
      seen := mark !seen delta_bit;
      delta := scan_number sc;
      positive !delta
    end
    else if key sc "param" then begin
      seen := mark !seen param_bit;
      opening_quote sc;
      param :=
        if word sc "scale" || word sc "fixed_n" then Protocol.Scale
        else if word sc "te" then Protocol.Te
        else if word sc "alloc" then Protocol.Alloc
        else raise Slow
    end
    else if key sc "values" then begin
      seen := mark !seen values_bit;
      values := scan_array sc scan_number
    end
    else raise Slow;
    more := next_field sc
  done;
  skip_ws sc;
  if sc.pos <> len sc then raise Slow;
  let seen = !seen and solution = !solution and delta = !delta in
  let fixed_n = if has seen fixed_n_bit then Some !fixed_n else None in
  let query problem =
    Option.iter (in_range problem) fixed_n;
    { Protocol.problem; solution; fixed_n; delta }
  in
  let op = !op in
  if op = plan_op then begin
    if (not (has seen problem_bit)) || has seen problems_bit || has seen param_bit
       || has seen values_bit
    then raise Slow;
    { Protocol.id = !id; op = some_plan; request = Ok (Protocol.Plan (query !problem)) }
  end
  else if op = batch_op then begin
    (* An empty batch is the tree's to refuse, with its message. *)
    if (not (has seen problems_bit)) || has seen problem_bit || has seen param_bit
       || has seen values_bit || Array.length !problems = 0
    then raise Slow;
    { Protocol.id = !id;
      op = some_batch;
      request = Ok (Protocol.Batch_plan { queries = Array.map query !problems }) }
  end
  else if op = sweep_op then begin
    if (not (has seen problem_bit && has seen param_bit && has seen values_bit))
       || has seen problems_bit
    then raise Slow;
    let values = !values in
    if Array.length values = 0 then raise Slow;
    Array.iter (fun v -> if not (v > 0. && Float.is_finite v) then raise Slow) values;
    let base = query !problem in
    if !param = Protocol.Scale then Array.iter (in_range base.Protocol.problem) values;
    { Protocol.id = !id;
      op = some_sweep;
      request = Ok (Protocol.Sweep { base; param = !param; values }) }
  end
  else raise Slow

let parse_request line =
  match scan_request { s = line; pos = 0; span = 0; span_len = 0 } with
  | envelope -> envelope
  | exception _ -> Protocol.parse_request line

(* --------------- responses --------------- *)

let write_id buf = function
  | None -> ()
  | Some id ->
      Buffer.add_string buf "\"id\":";
      Json.add_json buf id;
      Buffer.add_char buf ','

let write_error buf (e : Protocol.error) =
  Buffer.add_string buf "{\"code\":";
  Json.add_escaped buf e.Protocol.code;
  Buffer.add_string buf ",\"message\":";
  Json.add_escaped buf e.Protocol.message;
  if e.Protocol.attempts > 0 then begin
    Buffer.add_string buf ",\"attempts\":";
    Json.add_number buf (float_of_int e.Protocol.attempts)
  end;
  Buffer.add_char buf '}'

let write_degraded buf = function
  | None -> ()
  | Some { Protocol.fallback; reason } ->
      Buffer.add_string buf ",\"degraded\":true,\"fallback\":\"";
      Buffer.add_string buf (Protocol.solution_to_string fallback);
      Buffer.add_string buf "\",\"degraded_reason\":";
      write_error buf reason

let write_bool buf b = Buffer.add_string buf (if b then "true" else "false")

let write_answer_fields buf (a : Protocol.answer) =
  Buffer.add_string buf "\"cached\":";
  write_bool buf a.Protocol.cached;
  Buffer.add_string buf ",\"plan\":";
  Ckpt_model.Codec.write_plan buf a.Protocol.plan;
  write_degraded buf a.Protocol.degraded

let write_plan_response buf ?id (a : Protocol.answer) =
  Buffer.add_char buf '{';
  write_id buf id;
  Buffer.add_string buf "\"ok\":true,\"op\":\"plan\",";
  write_answer_fields buf a;
  Buffer.add_char buf '}'

let solved_count points =
  Array.fold_left (fun n o -> if Result.is_ok o then n + 1 else n) 0 points

let write_batch_plan_response buf ?id points =
  Buffer.add_char buf '{';
  write_id buf id;
  Buffer.add_string buf "\"ok\":true,\"op\":\"batch-plan\",\"count\":";
  Json.add_number buf (float_of_int (Array.length points));
  Buffer.add_string buf ",\"solved\":";
  Json.add_number buf (float_of_int (solved_count points));
  Buffer.add_string buf ",\"results\":[";
  Array.iteri
    (fun i outcome ->
      if i > 0 then Buffer.add_char buf ',';
      match outcome with
      | Ok a ->
          Buffer.add_char buf '{';
          write_answer_fields buf a;
          Buffer.add_char buf '}'
      | Error e ->
          Buffer.add_string buf "{\"error\":";
          write_error buf e;
          Buffer.add_char buf '}')
    points;
  Buffer.add_string buf "]}"

let write_sweep_response buf ?id ~param points =
  Buffer.add_char buf '{';
  write_id buf id;
  Buffer.add_string buf "\"ok\":true,\"op\":\"sweep\",\"param\":\"";
  Buffer.add_string buf (Protocol.sweep_param_to_string param);
  Buffer.add_string buf "\",\"count\":";
  Json.add_number buf (float_of_int (Array.length points));
  Buffer.add_string buf ",\"solved\":";
  Json.add_number buf
    (float_of_int
       (Array.fold_left (fun n (_, o) -> if Result.is_ok o then n + 1 else n) 0 points));
  Buffer.add_string buf ",\"results\":[";
  Array.iteri
    (fun i (v, outcome) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf "{\"value\":";
      Json.add_number buf v;
      (match outcome with
      | Ok a ->
          Buffer.add_char buf ',';
          write_answer_fields buf a
      | Error e ->
          Buffer.add_string buf ",\"error\":";
          write_error buf e);
      Buffer.add_char buf '}')
    points;
  Buffer.add_string buf "]}"
