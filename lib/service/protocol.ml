open Ckpt_model
module Json = Ckpt_json.Json
module Stats = Ckpt_numerics.Stats

type error = { code : string; message : string; attempts : int }

let error_v ?(attempts = 0) code message = { code; message; attempts }
let err code fmt = Printf.ksprintf (fun message -> Error (error_v code message)) fmt

type solution = Ml_opt | Ml_ori | Sl_opt | Sl_ori

type query = {
  problem : Optimizer.problem;
  solution : solution;
  fixed_n : float option;
  delta : float;
}

type sweep_param = Scale | Te | Alloc

type request =
  | Plan of query
  | Batch_plan of { queries : query array }
  | Sweep of { base : query; param : sweep_param; values : float array }
  | Simulate_validate of { query : query; replications : int; seed : int }
  | Observe of { events : Ckpt_adaptive.Telemetry.event list }
  | Estimate of { baseline_scale : float; coverage : float }
  | Replan of { query : query; prior_strength : float }
  | Calibrate of {
      query : query;
      log : string list;
      prior_strength : float;
      compare : bool;
    }
  | Stats

type envelope = {
  id : Json.t option;
  op : string option;
  request : (request, error) result;
}

let solution_of_string = function
  | "ml-opt" -> Ok Ml_opt
  | "ml-ori" -> Ok Ml_ori
  | "sl-opt" -> Ok Sl_opt
  | "sl-ori" -> Ok Sl_ori
  | s -> err "invalid-request" "unknown solution %S (want ml-opt|ml-ori|sl-opt|sl-ori)" s

let solution_to_string = function
  | Ml_opt -> "ml-opt"
  | Ml_ori -> "ml-ori"
  | Sl_opt -> "sl-opt"
  | Sl_ori -> "sl-ori"

let sweep_param_of_string = function
  | "scale" | "fixed_n" -> Ok Scale
  | "te" -> Ok Te
  | "alloc" -> Ok Alloc
  | s -> err "invalid-request" "unknown sweep param %S (want scale|te|alloc)" s

let sweep_param_to_string = function Scale -> "scale" | Te -> "te" | Alloc -> "alloc"

let ( let* ) = Result.bind

let default_delta = 1e-9

let scale_in_range (speedup : Speedup.t) n =
  n > 0.
  &&
  let g = Speedup.eval speedup n in
  Float.is_finite g && g > 0.

(* A pinned scale where g(N) is not finite and positive has no
   productive time f(T_e, N) = T_e / g(N): refuse it at the boundary
   instead of letting the solver trip over it.  [n] is positive. *)
let check_scale ~what (problem : Optimizer.problem) n =
  if scale_in_range problem.Optimizer.speedup n then Ok ()
  else
    err "invalid-request" "%s %.12g is outside the speedup's positive range (g(N) = %g)"
      what n
      (Speedup.eval problem.Optimizer.speedup n)

let parse_query json =
  let* problem =
    match Json.member "problem" json with
    | None -> err "invalid-request" "missing field \"problem\""
    | Some pj -> (
        (* The codec can raise on degenerate shapes (e.g. an empty
           hierarchy trips an assertion in Failure_spec.v); the service
           boundary turns every such case into a structured error. *)
        match Codec.problem_of_json pj with
        | Ok p -> Ok p
        | Error m -> Error (error_v "invalid-problem" m)
        | exception e -> Error (error_v "invalid-problem" (Printexc.to_string e)))
  in
  (* The satellite contract: every request is validated here, before any
     query can reach a worker domain. *)
  let* () =
    match Optimizer.check_problem problem with
    | () -> Ok ()
    | exception Invalid_argument m -> Error (error_v "invalid-problem" m)
  in
  let* solution =
    match Json.string_field "solution" json with
    | None -> Ok Ml_opt
    | Some s -> solution_of_string s
  in
  let fixed_n = Json.float_field "fixed_n" json in
  let* () =
    match fixed_n with
    | Some n when n <= 0. -> err "invalid-request" "fixed_n must be positive"
    | Some n -> check_scale ~what:"fixed_n" problem n
    | None -> Ok ()
  in
  let delta = Option.value (Json.float_field "delta" json) ~default:default_delta in
  let* () =
    if delta > 0. then Ok () else err "invalid-request" "delta must be positive"
  in
  Ok { problem; solution; fixed_n; delta }

(* A batch-plan is K plan queries sharing the envelope's solution /
   fixed_n / delta: the shape batch clients (and the SoA batch solver
   behind the planner) are built for.  Parsed like K independent plan
   requests — each problem is decoded and validated before anything can
   reach a worker — but rejected atomically: one bad problem fails the
   whole request, exactly as one bad value fails a sweep. *)
let parse_batch_plan json =
  let* solution =
    match Json.string_field "solution" json with
    | None -> Ok Ml_opt
    | Some s -> solution_of_string s
  in
  let fixed_n = Json.float_field "fixed_n" json in
  let* () =
    match fixed_n with
    | Some n when n <= 0. -> err "invalid-request" "fixed_n must be positive"
    | _ -> Ok ()
  in
  let delta = Option.value (Json.float_field "delta" json) ~default:default_delta in
  let* () =
    if delta > 0. then Ok () else err "invalid-request" "delta must be positive"
  in
  (* The shared fixed_n is checked against each problem's own speedup,
     after that problem decodes and validates. *)
  let scale_ok i p =
    match fixed_n with
    | None -> Ok ()
    | Some n -> (
        match check_scale ~what:"fixed_n" p n with
        | Ok () -> Ok ()
        | Error e -> err e.code "problems[%d]: %s" i e.message)
  in
  let* items =
    match Json.list_field "problems" json with
    | None ->
        err "invalid-request" "missing field \"problems\" (an array of problem objects)"
    | Some [] -> err "invalid-request" "empty \"problems\""
    | Some items -> Ok items
  in
  let rec decode acc i = function
    | [] -> Ok (Array.of_list (List.rev acc))
    | item :: rest -> (
        match Codec.problem_of_json item with
        | Ok p -> (
            match Optimizer.check_problem p with
            | () ->
                let* () = scale_ok i p in
                decode ({ problem = p; solution; fixed_n; delta } :: acc) (i + 1) rest
            | exception Invalid_argument m -> err "invalid-problem" "problems[%d]: %s" i m)
        | Error m -> err "invalid-problem" "problems[%d]: %s" i m
        | exception e -> err "invalid-problem" "problems[%d]: %s" i (Printexc.to_string e))
  in
  let* queries = decode [] 0 items in
  Ok (Batch_plan { queries })

let parse_sweep json =
  let* base = parse_query json in
  let* param =
    match Json.string_field "param" json with
    | None -> err "invalid-request" "missing field \"param\""
    | Some s -> sweep_param_of_string s
  in
  let* values =
    match Option.bind (Json.member "values" json) Json.of_float_array with
    | None -> err "invalid-request" "missing or non-numeric field \"values\""
    | Some [||] -> err "invalid-request" "empty sweep \"values\""
    | Some vs -> Ok vs
  in
  let* () =
    if Array.for_all (fun v -> v > 0. && Float.is_finite v) values then Ok ()
    else err "invalid-request" "sweep values must be positive and finite"
  in
  let* () =
    match param with
    | Scale -> (
        let speedup = base.problem.Optimizer.speedup in
        match Array.find_opt (fun v -> not (scale_in_range speedup v)) values with
        | Some v -> check_scale ~what:"sweep value" base.problem v
        | None -> Ok ())
    | Te | Alloc -> Ok ()
  in
  Ok (Sweep { base; param; values })

let parse_validate json =
  let* query = parse_query json in
  let replications =
    Option.value (Option.bind (Json.member "replications" json) Json.to_int) ~default:10
  in
  let* () =
    if replications >= 1 && replications <= 10_000 then Ok ()
    else err "invalid-request" "replications must be in [1, 10000]"
  in
  let seed = Option.value (Option.bind (Json.member "seed" json) Json.to_int) ~default:1 in
  Ok (Simulate_validate { query; replications; seed })

let parse_observe json =
  match Json.member "events" json with
  | None -> err "invalid-request" "missing field \"events\""
  | Some (Json.List items) ->
      let rec decode acc i = function
        | [] -> Ok (Observe { events = List.rev acc })
        | item :: rest -> (
            match Ckpt_adaptive.Telemetry.of_json item with
            | Ok event -> decode (event :: acc) (i + 1) rest
            | Error m -> err "invalid-request" "events[%d]: %s" i m)
      in
      decode [] 0 items
  | Some _ -> err "invalid-request" "field \"events\" must be an array"

(* Failure_spec's default N_b (the paper's N_star). *)
let default_baseline_scale =
  (Ckpt_failures.Failure_spec.v [| 0. |]).Ckpt_failures.Failure_spec.baseline_scale

let parse_estimate json =
  let baseline_scale =
    Option.value (Json.float_field "baseline_scale" json) ~default:default_baseline_scale
  in
  let* () =
    if baseline_scale > 0. then Ok ()
    else err "invalid-request" "baseline_scale must be positive"
  in
  let coverage = Option.value (Json.float_field "coverage" json) ~default:0.95 in
  let* () =
    if Ckpt_adaptive.Rate_estimator.valid_coverage coverage then Ok ()
    else err "invalid-request" "coverage must be in (0, 1 - 2^-52]"
  in
  Ok (Estimate { baseline_scale; coverage })

let parse_replan json =
  let* query = parse_query json in
  let prior_strength = Option.value (Json.float_field "prior_strength" json) ~default:0. in
  let* () =
    if prior_strength >= 0. then Ok ()
    else err "invalid-request" "prior_strength must be non-negative"
  in
  Ok (Replan { query; prior_strength })

let parse_calibrate json =
  let* query = parse_query json in
  let* log =
    match Json.member "log" json with
    | None -> err "invalid-request" "missing field \"log\""
    | Some (Json.List items) ->
        let rec decode acc i = function
          | [] -> Ok (List.rev acc)
          | Json.String s :: rest -> decode (s :: acc) (i + 1) rest
          | _ :: _ -> err "invalid-request" "log[%d] must be a string" i
        in
        decode [] 0 items
    | Some _ -> err "invalid-request" "field \"log\" must be an array of strings"
  in
  let prior_strength = Option.value (Json.float_field "prior_strength" json) ~default:0. in
  let* () =
    if prior_strength >= 0. then Ok ()
    else err "invalid-request" "prior_strength must be non-negative"
  in
  let* compare =
    match Json.member "compare" json with
    | None -> Ok false
    | Some v -> (
        match Json.to_bool v with
        | Some b -> Ok b
        | None -> err "invalid-request" "field \"compare\" must be a boolean")
  in
  Ok (Calibrate { query; log; prior_strength; compare })

(* The ops [parse_request] answers: keep in step with its match. *)
let ops =
  [ "plan"; "batch-plan"; "sweep"; "simulate-validate"; "observe"; "estimate";
    "replan"; "calibrate"; "stats" ]

let parse_request line =
  match Json.parse_result line with
  | Error m -> { id = None; op = None; request = Error (error_v "parse" m) }
  | Ok json ->
      let id = Json.member "id" json in
      let op = Json.string_field "op" json in
      let request =
        match op with
        | None -> err "invalid-request" "missing field \"op\""
        | Some "plan" ->
            let* q = parse_query json in
            Ok (Plan q)
        | Some "batch-plan" -> parse_batch_plan json
        | Some "sweep" -> parse_sweep json
        | Some "simulate-validate" -> parse_validate json
        | Some "observe" -> parse_observe json
        | Some "estimate" -> parse_estimate json
        | Some "replan" -> parse_replan json
        | Some "calibrate" -> parse_calibrate json
        | Some "stats" -> Ok Stats
        | Some op -> err "invalid-request" "unknown op %S" op
      in
      { id; op; request }

let sweep_point base param v =
  match param with
  | Scale -> { base with fixed_n = Some v }
  | Te -> { base with problem = { base.problem with Optimizer.te = v } }
  | Alloc -> { base with problem = { base.problem with Optimizer.alloc = v } }

let simulation_problem q =
  match q.solution with
  | Ml_opt | Ml_ori -> q.problem
  | Sl_opt | Sl_ori -> Optimizer.single_level_problem q.problem

(* --------------- answers --------------- *)

type degraded = { fallback : solution; reason : error }

type answer = {
  plan : Optimizer.plan;
  cached : bool;
  degraded : degraded option;
}

(* --------------- responses --------------- *)

let with_id id fields = match id with None -> fields | Some id -> ("id", id) :: fields

let error_json { code; message; attempts } =
  (* [attempts] appears only when retries actually happened, so error
     payloads from paths that never retry are byte-identical to the
     pre-taxonomy wire format. *)
  Json.Obj
    (("code", Json.String code)
    :: ("message", Json.String message)
    ::
    (if attempts > 0 then [ ("attempts", Json.Number (float_of_int attempts)) ]
     else []))

let error_response ?id e =
  Json.Obj (with_id id [ ("ok", Json.Bool false); ("error", error_json e) ])

(* Degraded markers are appended after the payload and omitted entirely
   on the healthy path — chaos off means byte-identical responses. *)
let degraded_fields = function
  | None -> []
  | Some { fallback; reason } ->
      [ ("degraded", Json.Bool true);
        ("fallback", Json.String (solution_to_string fallback));
        ("degraded_reason", error_json reason) ]

let plan_response ?id answer =
  Json.Obj
    (with_id id
       ([ ("ok", Json.Bool true); ("op", Json.String "plan");
          ("cached", Json.Bool answer.cached);
          ("plan", Codec.plan_to_json answer.plan) ]
       @ degraded_fields answer.degraded))

let batch_plan_response ?id points =
  let point outcome =
    let fields =
      match outcome with
      | Ok answer ->
          [ ("cached", Json.Bool answer.cached);
            ("plan", Codec.plan_to_json answer.plan) ]
          @ degraded_fields answer.degraded
      | Error e -> [ ("error", error_json e) ]
    in
    Json.Obj fields
  in
  let solved =
    Array.fold_left (fun n o -> if Result.is_ok o then n + 1 else n) 0 points
  in
  Json.Obj
    (with_id id
       [ ("ok", Json.Bool true); ("op", Json.String "batch-plan");
         ("count", Json.Number (float_of_int (Array.length points)));
         ("solved", Json.Number (float_of_int solved));
         ("results", Json.List (Array.to_list (Array.map point points))) ])

let sweep_response ?id ~param points =
  let point (v, outcome) =
    let fields =
      match outcome with
      | Ok answer ->
          [ ("value", Json.Number v); ("cached", Json.Bool answer.cached);
            ("plan", Codec.plan_to_json answer.plan) ]
          @ degraded_fields answer.degraded
      | Error e -> [ ("value", Json.Number v); ("error", error_json e) ]
    in
    Json.Obj fields
  in
  let solved =
    Array.fold_left (fun n (_, o) -> if Result.is_ok o then n + 1 else n) 0 points
  in
  Json.Obj
    (with_id id
       [ ("ok", Json.Bool true); ("op", Json.String "sweep");
         ("param", Json.String (sweep_param_to_string param));
         ("count", Json.Number (float_of_int (Array.length points)));
         ("solved", Json.Number (float_of_int solved));
         ("results", Json.List (Array.to_list (Array.map point points))) ])

type validation = {
  predicted_wall_clock : float;
  simulated : Stats.summary;
  relative_error : float;
  completed_runs : int;
}

let validation_response ?id ?degraded ~cached ~plan v =
  Json.Obj
    (with_id id
       ([ ("ok", Json.Bool true); ("op", Json.String "simulate-validate");
          ("cached", Json.Bool cached);
          ("predicted_wall_clock", Json.Number v.predicted_wall_clock);
          ("simulated",
           Json.Obj
             [ ("replications", Json.Number (float_of_int v.simulated.Stats.n));
               ("completed", Json.Number (float_of_int v.completed_runs));
               ("mean", Json.Number v.simulated.Stats.mean);
               ("std", Json.Number v.simulated.Stats.std);
               ("min", Json.Number v.simulated.Stats.min);
               ("max", Json.Number v.simulated.Stats.max) ]);
          ("relative_error", Json.Number v.relative_error);
          ("plan", Codec.plan_to_json plan) ]
       @ degraded_fields degraded))

let observe_response ?id ~events ~failures ~exposure () =
  Json.Obj
    (with_id id
       [ ("ok", Json.Bool true); ("op", Json.String "observe");
         ("events", Json.Number (float_of_int events));
         ("failures", Json.Number (float_of_int failures));
         ("exposure_core_seconds", Json.Number exposure) ])

let estimate_response ?id payload =
  Json.Obj
    (with_id id
       [ ("ok", Json.Bool true); ("op", Json.String "estimate"); ("estimate", payload) ])

let replan_response ?id ?degraded ~plan ~fitted () =
  Json.Obj
    (with_id id
       ([ ("ok", Json.Bool true); ("op", Json.String "replan");
          ("plan", Codec.plan_to_json plan);
          ("fitted_problem", Codec.problem_to_json fitted) ]
       @ degraded_fields degraded))

let calibrate_response ?id ?degraded ?comparison ~plan ~fitted ~provenance () =
  Json.Obj
    (with_id id
       ([ ("ok", Json.Bool true); ("op", Json.String "calibrate");
          ("plan", Codec.plan_to_json plan);
          ("fitted_problem", Codec.problem_to_json fitted);
          ("provenance", provenance) ]
       @ (match comparison with None -> [] | Some c -> [ ("comparison", c) ])
       @ degraded_fields degraded))

let stats_response ?id payload =
  Json.Obj
    (with_id id [ ("ok", Json.Bool true); ("op", Json.String "stats"); ("stats", payload) ])

let response_ok json = Json.member "ok" json = Some (Json.Bool true)

let response_error json =
  match Json.member "error" json with
  | None -> None
  | Some e -> (
      match (Json.string_field "code" e, Json.string_field "message" e) with
      | Some code, Some message ->
          let attempts =
            Option.value ~default:0 (Option.bind (Json.member "attempts" e) Json.to_int)
          in
          Some { code; message; attempts }
      | _ -> None)

let response_degraded json = Json.member "degraded" json = Some (Json.Bool true)
