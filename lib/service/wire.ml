(* Zero-tree wire fastpath for the hot protocol shapes.

   Decode: a recursive-descent scanner over the raw line that builds
   [Protocol.query] values directly — no [Json.t] tree — for the three
   solver-bound ops (plan, batch-plan, sweep).  The scanner accepts a
   strict subset of what the tree parser accepts: any deviation (escape
   sequences, unknown fields, duplicate keys, shape or validation
   errors) raises [Slow] and the caller falls back to
   [Protocol.parse_request], so observable behaviour is always
   tree-equal — the fast path only ever short-circuits lines the tree
   parser would have answered [Ok].  Numbers are converted with
   [float_of_string] over the same character span the tree parser's
   number lexer consumes, so every float is bit-identical.

   Encode: streaming writers for the matching responses, byte-identical
   to [Json.to_string (Protocol.*_response ...)], reusing the caller's
   buffer. *)

open Ckpt_model
module Json = Ckpt_json.Json
module Failure_spec = Ckpt_failures.Failure_spec

exception Slow

type scan = { s : string; mutable pos : int }

let len sc = String.length sc.s

let skip_ws sc =
  while
    sc.pos < len sc
    &&
    match String.unsafe_get sc.s sc.pos with
    | ' ' | '\t' | '\n' | '\r' -> true
    | _ -> false
  do
    sc.pos <- sc.pos + 1
  done

let peek sc = if sc.pos < len sc then String.unsafe_get sc.s sc.pos else '\000'

let expect sc c =
  skip_ws sc;
  if sc.pos < len sc && String.unsafe_get sc.s sc.pos = c then
    sc.pos <- sc.pos + 1
  else raise Slow

let eat sc c =
  skip_ws sc;
  if sc.pos < len sc && String.unsafe_get sc.s sc.pos = c then begin
    sc.pos <- sc.pos + 1;
    true
  end
  else false

(* A string with no escapes; the opening quote is already consumed.
   Escapes are rare in protocol traffic — leave them to the tree. *)
let scan_string_body sc =
  let start = sc.pos in
  let rec seek () =
    if sc.pos >= len sc then raise Slow
    else
      match String.unsafe_get sc.s sc.pos with
      | '"' ->
          let v = String.sub sc.s start (sc.pos - start) in
          sc.pos <- sc.pos + 1;
          v
      | '\\' -> raise Slow
      | _ ->
          sc.pos <- sc.pos + 1;
          seek ()
  in
  seek ()

let scan_string sc =
  expect sc '"';
  scan_string_body sc

let is_number_char c =
  (c >= '0' && c <= '9') || c = '-' || c = '+' || c = '.' || c = 'e' || c = 'E'

(* Same start, same span, same [float_of_string] as the tree parser's
   number lexer: bit-identical floats by construction.  Like the tree,
   a number must start with '-' or a digit — [float_of_string] alone
   would also take "+5" and ".5", which the tree rejects as not JSON. *)
let scan_number sc =
  skip_ws sc;
  let start = sc.pos in
  (match peek sc with '-' | '0' .. '9' -> () | _ -> raise Slow);
  while sc.pos < len sc && is_number_char (String.unsafe_get sc.s sc.pos) do
    sc.pos <- sc.pos + 1
  done;
  match float_of_string_opt (String.sub sc.s start (sc.pos - start)) with
  | Some f -> f
  | None -> raise Slow

(* Field keys are matched in place — no substring per key. *)
let scan_key sc =
  expect sc '"';
  let start = sc.pos in
  let rec seek () =
    if sc.pos >= len sc then raise Slow
    else
      match String.unsafe_get sc.s sc.pos with
      | '"' ->
          let l = sc.pos - start in
          sc.pos <- sc.pos + 1;
          (start, l)
      | '\\' -> raise Slow
      | _ ->
          sc.pos <- sc.pos + 1;
          seek ()
  in
  seek ()

let key_eq sc (start, l) lit =
  l = String.length lit
  &&
  let rec go i =
    i = l || (String.unsafe_get sc.s (start + i) = String.unsafe_get lit i && go (i + 1))
  in
  go 0

(* Iterate the fields of an object whose '{' is not yet consumed.
   [field] receives the key span with the scanner positioned on the
   value (':' consumed) and must consume exactly that value. *)
let scan_obj sc field =
  expect sc '{';
  skip_ws sc;
  if peek sc = '}' then sc.pos <- sc.pos + 1
  else
    let rec pairs () =
      let key = scan_key sc in
      expect sc ':';
      field key;
      if eat sc ',' then pairs () else expect sc '}'
    in
    pairs ()

let required = function Some v -> v | None -> raise Slow

(* Duplicate keys would shadow differently than the tree's first-wins
   [List.assoc]; bail instead of choosing. *)
let fresh = function None -> () | Some _ -> raise Slow

(* --------------- problem pieces (mirrors Codec.*_of_json) --------------- *)

let scan_overhead sc =
  let eps = ref None and alpha = ref None and h = ref None in
  scan_obj sc (fun key ->
      if key_eq sc key "eps" then begin
        fresh !eps;
        eps := Some (scan_number sc)
      end
      else if key_eq sc key "alpha" then begin
        fresh !alpha;
        alpha := Some (scan_number sc)
      end
      else if key_eq sc key "h" then begin
        fresh !h;
        h := Some (scan_string sc)
      end
      else raise Slow);
  let eps = required !eps and alpha = required !alpha in
  match required !h with
  | "0" -> Overhead.constant eps
  | "N" -> if alpha = 0. then Overhead.constant eps else Overhead.linear ~eps ~alpha
  | _ -> raise Slow

let scan_level sc =
  let name = ref None and ckpt = ref None and restart = ref None in
  scan_obj sc (fun key ->
      if key_eq sc key "name" then begin
        fresh !name;
        name := Some (scan_string sc)
      end
      else if key_eq sc key "ckpt" then begin
        fresh !ckpt;
        ckpt := Some (scan_overhead sc)
      end
      else if key_eq sc key "restart" then begin
        fresh !restart;
        restart := Some (scan_overhead sc)
      end
      else raise Slow);
  Level.v ~name:(required !name) ~restart:(required !restart) (required !ckpt)

let scan_speedup sc =
  let kind = ref None
  and kappa = ref None
  and n_star = ref None
  and serial_fraction = ref None
  and peak = ref None in
  scan_obj sc (fun key ->
      if key_eq sc key "kind" then begin
        fresh !kind;
        kind := Some (scan_string sc)
      end
      else if key_eq sc key "kappa" then begin
        fresh !kappa;
        kappa := Some (scan_number sc)
      end
      else if key_eq sc key "n_star" then begin
        fresh !n_star;
        n_star := Some (scan_number sc)
      end
      else if key_eq sc key "serial_fraction" then begin
        fresh !serial_fraction;
        serial_fraction := Some (scan_number sc)
      end
      else if key_eq sc key "peak" then begin
        fresh !peak;
        peak := Some (scan_number sc)
      end
      else raise Slow);
  match required !kind with
  | "linear" -> Speedup.linear ~kappa:(required !kappa)
  | "quadratic" -> Speedup.quadratic ~kappa:(required !kappa) ~n_star:(required !n_star)
  | "amdahl" ->
      Speedup.amdahl ~serial_fraction:(required !serial_fraction) ~peak:(required !peak)
  | "gustafson" ->
      Speedup.gustafson ~serial_fraction:(required !serial_fraction)
        ~peak:(required !peak)
  | _ -> raise Slow

let scan_float_array sc =
  expect sc '[';
  skip_ws sc;
  if peek sc = ']' then begin
    sc.pos <- sc.pos + 1;
    [||]
  end
  else
    let rec items acc =
      let v = scan_number sc in
      if eat sc ',' then items (v :: acc) else begin
        expect sc ']';
        Array.of_list (List.rev (v :: acc))
      end
    in
    items []

let scan_levels sc =
  expect sc '[';
  skip_ws sc;
  if peek sc = ']' then begin
    sc.pos <- sc.pos + 1;
    [||]
  end
  else
    let rec items acc =
      let v = scan_level sc in
      if eat sc ',' then items (v :: acc) else begin
        expect sc ']';
        Array.of_list (List.rev (v :: acc))
      end
    in
    items []

let scan_problem sc =
  let te = ref None
  and speedup = ref None
  and levels = ref None
  and alloc = ref None
  and rates = ref None
  and baseline_scale = ref None in
  scan_obj sc (fun key ->
      if key_eq sc key "te" then begin
        fresh !te;
        te := Some (scan_number sc)
      end
      else if key_eq sc key "speedup" then begin
        fresh !speedup;
        speedup := Some (scan_speedup sc)
      end
      else if key_eq sc key "levels" then begin
        fresh !levels;
        levels := Some (scan_levels sc)
      end
      else if key_eq sc key "alloc" then begin
        fresh !alloc;
        alloc := Some (scan_number sc)
      end
      else if key_eq sc key "rates_per_day" then begin
        fresh !rates;
        rates := Some (scan_float_array sc)
      end
      else if key_eq sc key "baseline_scale" then begin
        fresh !baseline_scale;
        baseline_scale := Some (scan_number sc)
      end
      else raise Slow);
  let levels = required !levels and rates = required !rates in
  if Array.length rates <> Array.length levels then raise Slow;
  let problem =
    { Optimizer.te = required !te;
      speedup = required !speedup;
      levels;
      alloc = required !alloc;
      spec = Failure_spec.v ~baseline_scale:(required !baseline_scale) rates }
  in
  Optimizer.check_problem problem;
  problem

let scan_problems sc =
  expect sc '[';
  skip_ws sc;
  if peek sc = ']' then raise Slow (* tree path owns the "empty" error *)
  else
    let rec items acc =
      let v = scan_problem sc in
      if eat sc ',' then items (v :: acc) else begin
        expect sc ']';
        Array.of_list (List.rev (v :: acc))
      end
    in
    items []

(* The request id can be any JSON value; scalars cover real traffic. *)
let scan_id sc =
  skip_ws sc;
  match peek sc with
  | '"' ->
      sc.pos <- sc.pos + 1;
      Json.String (scan_string_body sc)
  | '-' | '0' .. '9' -> Json.Number (scan_number sc)
  | 't' | 'f' | 'n' ->
      let lit w v =
        let n = String.length w in
        if sc.pos + n <= len sc && String.sub sc.s sc.pos n = w then begin
          sc.pos <- sc.pos + n;
          v
        end
        else raise Slow
      in
      if peek sc = 't' then lit "true" (Json.Bool true)
      else if peek sc = 'f' then lit "false" (Json.Bool false)
      else lit "null" Json.Null
  | _ -> raise Slow

(* --------------- requests --------------- *)

let positive f = if not (f > 0.) then raise Slow

let scan_request sc =
  let op = ref None
  and id = ref None
  and problem = ref None
  and problems = ref None
  and solution = ref None
  and fixed_n = ref None
  and delta = ref None
  and param = ref None
  and values = ref None in
  scan_obj sc (fun key ->
      if key_eq sc key "op" then begin
        fresh !op;
        op := Some (scan_string sc)
      end
      else if key_eq sc key "id" then begin
        fresh !id;
        id := Some (scan_id sc)
      end
      else if key_eq sc key "problem" then begin
        fresh !problem;
        problem := Some (scan_problem sc)
      end
      else if key_eq sc key "problems" then begin
        fresh !problems;
        problems := Some (scan_problems sc)
      end
      else if key_eq sc key "solution" then begin
        fresh !solution;
        solution := Some (scan_string sc)
      end
      else if key_eq sc key "fixed_n" then begin
        fresh !fixed_n;
        fixed_n := Some (scan_number sc)
      end
      else if key_eq sc key "delta" then begin
        fresh !delta;
        delta := Some (scan_number sc)
      end
      else if key_eq sc key "param" then begin
        fresh !param;
        param := Some (scan_string sc)
      end
      else if key_eq sc key "values" then begin
        fresh !values;
        values := Some (scan_float_array sc)
      end
      else raise Slow);
  skip_ws sc;
  if sc.pos <> len sc then raise Slow;
  let solution =
    match !solution with
    | None -> Protocol.Ml_opt
    | Some "ml-opt" -> Protocol.Ml_opt
    | Some "ml-ori" -> Protocol.Ml_ori
    | Some "sl-opt" -> Protocol.Sl_opt
    | Some "sl-ori" -> Protocol.Sl_ori
    | Some _ -> raise Slow
  in
  Option.iter positive !fixed_n;
  let delta = Option.value !delta ~default:Protocol.default_delta in
  positive delta;
  (* Scales outside the speedup's positive range are the tree's to
     refuse, with its message. *)
  let in_range problem n =
    if not (Protocol.scale_in_range problem.Optimizer.speedup n) then raise Slow
  in
  let query problem =
    Option.iter (in_range problem) !fixed_n;
    { Protocol.problem; solution; fixed_n = !fixed_n; delta }
  in
  let request =
    match required !op with
    | "plan" ->
        if Option.is_some !problems || Option.is_some !param || Option.is_some !values
        then raise Slow;
        Protocol.Plan (query (required !problem))
    | "batch-plan" ->
        if Option.is_some !problem || Option.is_some !param || Option.is_some !values
        then raise Slow;
        Protocol.Batch_plan { queries = Array.map query (required !problems) }
    | "sweep" ->
        if Option.is_some !problems then raise Slow;
        let param =
          match required !param with
          | "scale" | "fixed_n" -> Protocol.Scale
          | "te" -> Protocol.Te
          | "alloc" -> Protocol.Alloc
          | _ -> raise Slow
        in
        let values = required !values in
        if Array.length values = 0 then raise Slow;
        Array.iter (fun v -> if not (v > 0. && Float.is_finite v) then raise Slow) values;
        let base = query (required !problem) in
        if param = Protocol.Scale then Array.iter (in_range base.Protocol.problem) values;
        Protocol.Sweep { base; param; values }
    | _ -> raise Slow
  in
  { Protocol.id = !id; op = !op; request = Ok request }

let parse_request line =
  match scan_request { s = line; pos = 0 } with
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
