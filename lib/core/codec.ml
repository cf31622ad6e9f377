module Json = Ckpt_json.Json
module Failure_spec = Ckpt_failures.Failure_spec

let ( let* ) = Result.bind

let field_err what = Error (Printf.sprintf "missing or invalid field %S" what)

let need_float key json =
  match Json.float_field key json with Some f -> Ok f | None -> field_err key

let need_string key json =
  match Json.string_field key json with Some s -> Ok s | None -> field_err key

(* --------------- speedup --------------- *)

let speedup_to_json (s : Speedup.t) =
  match s.Speedup.form with
  | Speedup.Linear { kappa } ->
      Json.Obj [ ("kind", Json.String "linear"); ("kappa", Json.Number kappa) ]
  | Speedup.Quadratic { kappa; n_star } ->
      Json.Obj
        [ ("kind", Json.String "quadratic"); ("kappa", Json.Number kappa);
          ("n_star", Json.Number n_star) ]
  | Speedup.Amdahl { serial_fraction; peak } ->
      Json.Obj
        [ ("kind", Json.String "amdahl");
          ("serial_fraction", Json.Number serial_fraction);
          ("peak", Json.Number peak) ]
  | Speedup.Gustafson { serial_fraction; peak } ->
      Json.Obj
        [ ("kind", Json.String "gustafson");
          ("serial_fraction", Json.Number serial_fraction);
          ("peak", Json.Number peak) ]
  | Speedup.Custom _ -> invalid_arg "Codec.speedup_to_json: custom speedups do not serialize"

(* The speedup constructors assert these ranges as internal guards; a
   decoded speedup is refused here first, with the field named. *)
let need_in key ok range json =
  match need_float key json with
  | Ok v when not (ok v) ->
      Error (Printf.sprintf "speedup field %S must be %s, got %g" key range v)
  | r -> r

let need_positive key json = need_in key (fun v -> v > 0.) "> 0" json
let need_fraction key json = need_in key (fun v -> v >= 0. && v < 1.) "in [0, 1)" json

let speedup_of_json json =
  let* kind = need_string "kind" json in
  match kind with
  | "linear" ->
      let* kappa = need_positive "kappa" json in
      Ok (Speedup.linear ~kappa)
  | "quadratic" ->
      let* kappa = need_positive "kappa" json in
      let* n_star = need_positive "n_star" json in
      Ok (Speedup.quadratic ~kappa ~n_star)
  | "amdahl" ->
      let* serial_fraction = need_fraction "serial_fraction" json in
      let* peak = need_positive "peak" json in
      Ok (Speedup.amdahl ~serial_fraction ~peak)
  | "gustafson" ->
      let* serial_fraction = need_fraction "serial_fraction" json in
      let* peak = need_positive "peak" json in
      Ok (Speedup.gustafson ~serial_fraction ~peak)
  | k -> Error (Printf.sprintf "unknown speedup kind %S" k)

(* --------------- overhead --------------- *)

let overhead_to_json (o : Overhead.t) =
  let h =
    match o.Overhead.h_name with
    | "0" -> "0"
    | "N" -> "N"
    | other -> invalid_arg (Printf.sprintf "Codec.overhead_to_json: baseline %S" other)
  in
  Json.Obj
    [ ("eps", Json.Number o.Overhead.eps); ("alpha", Json.Number o.Overhead.alpha);
      ("h", Json.String h) ]

let overhead_of_json json =
  let* eps = need_float "eps" json in
  let* alpha = need_float "alpha" json in
  let* h = need_string "h" json in
  match h with
  | "0" -> Ok (Overhead.constant eps)
  | "N" -> if alpha = 0. then Ok (Overhead.constant eps) else Ok (Overhead.linear ~eps ~alpha)
  | other -> Error (Printf.sprintf "unknown overhead baseline %S" other)

(* --------------- problem --------------- *)

let level_to_json (l : Level.t) =
  Json.Obj
    [ ("name", Json.String l.Level.name);
      ("ckpt", overhead_to_json l.Level.ckpt);
      ("restart", overhead_to_json l.Level.restart) ]

let level_of_json json =
  let* name = need_string "name" json in
  let* ckpt =
    match Json.member "ckpt" json with Some j -> overhead_of_json j | None -> field_err "ckpt"
  in
  let* restart =
    match Json.member "restart" json with
    | Some j -> overhead_of_json j
    | None -> field_err "restart"
  in
  Ok (Level.v ~name ~restart ckpt)

let problem_to_json (p : Optimizer.problem) =
  Json.Obj
    [ ("te", Json.Number p.Optimizer.te);
      ("speedup", speedup_to_json p.Optimizer.speedup);
      ("levels", Json.List (Array.to_list (Array.map level_to_json p.Optimizer.levels)));
      ("alloc", Json.Number p.Optimizer.alloc);
      ("rates_per_day", Json.float_array p.Optimizer.spec.Failure_spec.rates_per_day);
      ("baseline_scale", Json.Number p.Optimizer.spec.Failure_spec.baseline_scale) ]

let problem_of_json json =
  let* te = need_float "te" json in
  let* speedup =
    match Json.member "speedup" json with
    | Some j -> speedup_of_json j
    | None -> field_err "speedup"
  in
  let* levels =
    match Json.list_field "levels" json with
    | None -> field_err "levels"
    | Some items ->
        List.fold_left
          (fun acc item ->
            let* acc = acc in
            let* l = level_of_json item in
            Ok (l :: acc))
          (Ok []) items
        |> Result.map (fun ls -> Array.of_list (List.rev ls))
  in
  let* alloc = need_float "alloc" json in
  let* rates =
    match Option.bind (Json.member "rates_per_day" json) Json.of_float_array with
    | Some r -> Ok r
    | None -> field_err "rates_per_day"
  in
  let* baseline_scale = need_float "baseline_scale" json in
  if Array.length rates <> Array.length levels then Error "rates/levels arity mismatch"
  else if Array.length levels = 0 then Error "field \"levels\" must list at least one level"
  else
    Ok
      { Optimizer.te; speedup; levels; alloc;
        spec = Failure_spec.v ~baseline_scale rates }

(* --------------- plan --------------- *)

let breakdown_to_json (b : Multilevel.breakdown) =
  Json.Obj
    [ ("productive", Json.Number b.Multilevel.productive);
      ("checkpoint", Json.Number b.Multilevel.checkpoint);
      ("restart", Json.Number b.Multilevel.restart);
      ("allocation", Json.Number b.Multilevel.allocation);
      ("rollback", Json.Number b.Multilevel.rollback) ]

let breakdown_of_json json =
  let* productive = need_float "productive" json in
  let* checkpoint = need_float "checkpoint" json in
  let* restart = need_float "restart" json in
  let* allocation = need_float "allocation" json in
  let* rollback = need_float "rollback" json in
  Ok { Multilevel.productive; checkpoint; restart; allocation; rollback }

let plan_to_json (p : Optimizer.plan) =
  Json.Obj
    [ ("xs", Json.float_array p.Optimizer.xs);
      ("n", Json.Number p.Optimizer.n);
      ("wall_clock", Json.Number p.Optimizer.wall_clock);
      ("mus", Json.float_array p.Optimizer.mus);
      ("breakdown", breakdown_to_json p.Optimizer.breakdown);
      ("efficiency", Json.Number p.Optimizer.efficiency);
      ("outer_iterations", Json.Number (float_of_int p.Optimizer.outer_iterations));
      ("inner_iterations", Json.Number (float_of_int p.Optimizer.inner_iterations));
      ("f_evals", Json.Number (float_of_int p.Optimizer.f_evals));
      ("fallbacks", Json.Number (float_of_int p.Optimizer.fallbacks));
      ("converged", Json.Bool p.Optimizer.converged) ]

(* [plan_to_json] + compact serialization in one pass, byte-identical
   to [Json.to_string (plan_to_json p)]: plans dominate response bytes
   on the service fast path, so they are streamed into the response
   buffer without building the tree. *)
let write_float_array buf a =
  if Array.length a = 0 then Buffer.add_string buf "[]"
  else begin
    Buffer.add_char buf '[';
    Array.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char buf ',';
        Json.add_number buf x)
      a;
    Buffer.add_char buf ']'
  end

let write_plan buf (p : Optimizer.plan) =
  Buffer.add_string buf "{\"xs\":";
  write_float_array buf p.Optimizer.xs;
  Buffer.add_string buf ",\"n\":";
  Json.add_number buf p.Optimizer.n;
  Buffer.add_string buf ",\"wall_clock\":";
  Json.add_number buf p.Optimizer.wall_clock;
  Buffer.add_string buf ",\"mus\":";
  write_float_array buf p.Optimizer.mus;
  let b = p.Optimizer.breakdown in
  Buffer.add_string buf ",\"breakdown\":{\"productive\":";
  Json.add_number buf b.Multilevel.productive;
  Buffer.add_string buf ",\"checkpoint\":";
  Json.add_number buf b.Multilevel.checkpoint;
  Buffer.add_string buf ",\"restart\":";
  Json.add_number buf b.Multilevel.restart;
  Buffer.add_string buf ",\"allocation\":";
  Json.add_number buf b.Multilevel.allocation;
  Buffer.add_string buf ",\"rollback\":";
  Json.add_number buf b.Multilevel.rollback;
  Buffer.add_string buf "},\"efficiency\":";
  Json.add_number buf p.Optimizer.efficiency;
  Buffer.add_string buf ",\"outer_iterations\":";
  Json.add_number buf (float_of_int p.Optimizer.outer_iterations);
  Buffer.add_string buf ",\"inner_iterations\":";
  Json.add_number buf (float_of_int p.Optimizer.inner_iterations);
  Buffer.add_string buf ",\"f_evals\":";
  Json.add_number buf (float_of_int p.Optimizer.f_evals);
  Buffer.add_string buf ",\"fallbacks\":";
  Json.add_number buf (float_of_int p.Optimizer.fallbacks);
  Buffer.add_string buf ",\"converged\":";
  Buffer.add_string buf (if p.Optimizer.converged then "true" else "false");
  Buffer.add_char buf '}'

let plan_of_json json =
  let need_int key =
    match Option.bind (Json.member key json) Json.to_int with
    | Some i -> Ok i
    | None -> field_err key
  in
  let need_array key =
    match Option.bind (Json.member key json) Json.of_float_array with
    | Some a -> Ok a
    | None -> field_err key
  in
  let* xs = need_array "xs" in
  let* n = need_float "n" json in
  let* wall_clock = need_float "wall_clock" json in
  let* mus = need_array "mus" in
  let* breakdown =
    match Json.member "breakdown" json with
    | Some j -> breakdown_of_json j
    | None -> field_err "breakdown"
  in
  let* efficiency = need_float "efficiency" json in
  let* outer_iterations = need_int "outer_iterations" in
  let* inner_iterations = need_int "inner_iterations" in
  (* Absent in plans serialized before the telemetry fields existed
     (snapshots, WAL records): default to 0 rather than reject. *)
  let opt_int key =
    match Option.bind (Json.member key json) Json.to_int with
    | Some i -> i
    | None -> 0
  in
  let f_evals = opt_int "f_evals" in
  let fallbacks = opt_int "fallbacks" in
  let* converged =
    match Option.bind (Json.member "converged" json) Json.to_bool with
    | Some b -> Ok b
    | None -> field_err "converged"
  in
  Ok
    { Optimizer.xs; n; wall_clock; mus; breakdown; efficiency; outer_iterations;
      inner_iterations; f_evals; fallbacks; converged }

let bundle_to_json ~problem ~plan =
  Json.Obj [ ("problem", problem_to_json problem); ("plan", plan_to_json plan) ]

let bundle_of_json json =
  let* problem =
    match Json.member "problem" json with
    | Some j -> problem_of_json j
    | None -> field_err "problem"
  in
  let* plan =
    match Json.member "plan" json with Some j -> plan_of_json j | None -> field_err "plan"
  in
  Ok (problem, plan)
