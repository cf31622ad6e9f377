module Spec = Ckpt_failures.Failure_spec

type t = {
  levels : int;
  half_life : float option;
  counts : float array;  (* weighted, drives point estimates *)
  exposure : float;  (* weighted core-seconds *)
  raw_counts : int array;  (* drives exact CIs and sample-size gates *)
  raw_exposure : float;
  scale : float;  (* current execution scale *)
  last_at : float option;  (* last timestamp inside the current run *)
}

let create ?half_life ?(scale = 1.) ~levels () =
  if levels <= 0 then invalid_arg "Rate_estimator.create: levels must be positive";
  (match half_life with
  | Some h when h <= 0. -> invalid_arg "Rate_estimator.create: non-positive half_life"
  | _ -> ());
  if scale <= 0. then invalid_arg "Rate_estimator.create: non-positive scale";
  {
    levels;
    half_life;
    counts = Array.make levels 0.;
    exposure = 0.;
    raw_counts = Array.make levels 0;
    raw_exposure = 0.;
    scale;
    last_at = None;
  }

let levels t = t.levels

let check_level t level =
  if level < 1 || level > t.levels then
    invalid_arg (Printf.sprintf "Rate_estimator: level %d out of range 1..%d" level t.levels)

(* Advance exposure by the wall-clock gap to [at], in core-seconds at the
   current scale.  With a half-life, previously accumulated weight decays
   across the gap and the gap itself enters with its average weight —
   the closed form of  integral_0^d e^(-gamma (d - u)) du = (1 - e^(-gamma d)) / gamma. *)
let advance t at =
  match t.last_at with
  | None -> if Float.is_finite at then { t with last_at = Some at } else t
  | Some last ->
      (* Skewed or corrupted logs can present out-of-order or even
         non-finite timestamps; exposure only ever moves forward, and
         the watermark never rewinds (a backwards event must not make
         the span up to it count twice). *)
      let gap = at -. last in
      let dt = if Float.is_finite gap && gap > 0. then gap else 0. in
      let dcore = dt *. t.scale in
      let t = { t with last_at = Some (last +. dt); raw_exposure = t.raw_exposure +. dcore } in
      if dcore = 0. then t
      else (
        match t.half_life with
        | None -> { t with exposure = t.exposure +. dcore }
        | Some h ->
            let gamma = Float.log 2. /. h in
            let w = Float.exp (-.gamma *. dcore) in
            {
              t with
              counts = Array.map (fun c -> c *. w) t.counts;
              exposure = (t.exposure *. w) +. ((1. -. w) /. gamma);
            })

let observe t event =
  match event with
  | Telemetry.Run_start { at; scale; levels = _ } ->
      (* no exposure across the inter-run gap *)
      let scale = if scale > 0. && Float.is_finite scale then scale else t.scale in
      let last_at = if Float.is_finite at then Some at else t.last_at in
      { t with scale; last_at }
  | Telemetry.Failure { at; level } ->
      check_level t level;
      let t = advance t at in
      let counts = Array.copy t.counts in
      counts.(level - 1) <- counts.(level - 1) +. 1.;
      let raw_counts = Array.copy t.raw_counts in
      raw_counts.(level - 1) <- raw_counts.(level - 1) + 1;
      { t with counts; raw_counts }
  | Telemetry.Compute { at; duration; _ }
  | Telemetry.Ckpt { at; duration; _ }
  | Telemetry.Restart { at; duration; _ } ->
      advance t (at +. duration)
  | Telemetry.Run_end { at; _ } -> advance t at

let observe_all t events = List.fold_left observe t events

let forget t ~keep =
  if keep < 0. || keep > 1. then invalid_arg "Rate_estimator.forget: keep outside [0, 1]";
  { t with counts = Array.map (fun c -> c *. keep) t.counts; exposure = t.exposure *. keep }

let count t ~level =
  check_level t level;
  t.raw_counts.(level - 1)

let total_count t = Array.fold_left ( + ) 0 t.raw_counts
let exposure t = t.raw_exposure

let rate_per_core_second t ~level =
  check_level t level;
  if t.exposure <= 0. then 0. else t.counts.(level - 1) /. t.exposure

(* rate per core-second -> failures per day at N_b cores:
   lambda(N) = rate * N, so per day at N_b it is rate * N_b * 86400. *)
let per_day_factor ~baseline_scale =
  if baseline_scale <= 0. then
    invalid_arg "Rate_estimator: non-positive baseline_scale";
  Spec.seconds_per_day *. baseline_scale

let rate_per_day t ~level ~baseline_scale =
  rate_per_core_second t ~level *. per_day_factor ~baseline_scale

(* The upper bound's quantile is taken at 1 - alpha/2, which must stay
   below 1: the one coverage in (0, 1) it rounds away is 1 - 2^-53. *)
let valid_coverage c = c > 0. && c < 1. && 1. -. ((1. -. c) /. 2.) < 1.

let confidence_per_day ?(coverage = 0.95) t ~level ~baseline_scale =
  check_level t level;
  if not (valid_coverage coverage) then
    invalid_arg "Rate_estimator.confidence_per_day: coverage outside (0, 1 - 2^-52]";
  let factor = per_day_factor ~baseline_scale in
  if t.raw_exposure <= 0. then (0., infinity)
  else
    let k = float_of_int t.raw_counts.(level - 1) in
    let alpha = 1. -. coverage in
    (* chi2_q(2k)/2 = gamma_p_inv ~a:k ~p:q *)
    let lo =
      if k = 0. then 0.
      else Ckpt_numerics.Special.gamma_p_inv ~a:k ~p:(alpha /. 2.) /. t.raw_exposure
    in
    let hi =
      Ckpt_numerics.Special.gamma_p_inv ~a:(k +. 1.) ~p:(1. -. (alpha /. 2.)) /. t.raw_exposure
    in
    (lo *. factor, hi *. factor)

let to_spec ?(prior_strength = 0.) t ~like =
  if prior_strength < 0. then invalid_arg "Rate_estimator.to_spec: negative prior_strength";
  if Spec.levels like <> t.levels then
    invalid_arg "Rate_estimator.to_spec: level-count mismatch with prior spec";
  let nb = like.Spec.baseline_scale in
  let factor = per_day_factor ~baseline_scale:nb in
  let rates =
    Array.mapi
      (fun i prior_per_day ->
        let prior_rate = prior_per_day /. factor in
        let denom = t.exposure +. prior_strength in
        if denom <= 0. then prior_per_day
        else ((t.counts.(i) +. (prior_rate *. prior_strength)) /. denom) *. factor)
      like.Spec.rates_per_day
  in
  Spec.v ~baseline_scale:nb rates

(* ---------------- snapshot serialization ----------------
   Every field round-trips so a warm-restarted estimator is structurally
   equal to the live one it was snapshotted from: Ckpt_json prints floats
   with enough digits to parse back bit-identically, and the only
   non-finite value that can appear ([last_at] absent) is encoded as
   JSON null rather than relying on the non-finite->null printing rule. *)

module Json = Ckpt_json.Json

let to_json t =
  Json.Obj
    [ ("levels", Json.Number (float_of_int t.levels));
      ("half_life", (match t.half_life with None -> Json.Null | Some h -> Json.Number h));
      ("counts", Json.float_array t.counts);
      ("exposure", Json.Number t.exposure);
      ("raw_counts", Json.List (Array.to_list (Array.map (fun c -> Json.Number (float_of_int c)) t.raw_counts)));
      ("raw_exposure", Json.Number t.raw_exposure);
      ("scale", Json.Number t.scale);
      ("last_at", (match t.last_at with None -> Json.Null | Some a -> Json.Number a)) ]

let of_json json =
  let ( let* ) = Result.bind in
  let field name = Json.member name json in
  let number name =
    match Option.bind (field name) Json.to_float with
    | Some f when Float.is_finite f -> Ok f
    | Some _ -> Error (Printf.sprintf "Rate_estimator.of_json: non-finite %s" name)
    | None -> Error (Printf.sprintf "Rate_estimator.of_json: missing number %s" name)
  in
  let optional name =
    match field name with
    | None | Some Json.Null -> Ok None
    | Some v -> (
        match Json.to_float v with
        | Some f when Float.is_finite f -> Ok (Some f)
        | _ -> Error (Printf.sprintf "Rate_estimator.of_json: bad %s" name))
  in
  let* levels =
    match Option.bind (field "levels") Json.to_int with
    | Some l when l >= 1 && l <= Telemetry.max_levels -> Ok l
    | _ -> Error "Rate_estimator.of_json: levels outside 1..max_levels"
  in
  let* half_life = optional "half_life" in
  let* () =
    match half_life with
    | Some h when h <= 0. -> Error "Rate_estimator.of_json: non-positive half_life"
    | _ -> Ok ()
  in
  let* counts =
    match Option.bind (field "counts") Json.of_float_array with
    | Some a when Array.length a = levels && Array.for_all Float.is_finite a -> Ok a
    | _ -> Error "Rate_estimator.of_json: counts arity/finiteness mismatch"
  in
  let* raw_counts =
    match Option.bind (field "raw_counts") Json.to_list with
    | Some l when List.length l = levels ->
        let ints = List.filter_map Json.to_int l in
        if List.length ints = levels && List.for_all (fun c -> c >= 0) ints then
          Ok (Array.of_list ints)
        else Error "Rate_estimator.of_json: raw_counts must be non-negative integers"
    | _ -> Error "Rate_estimator.of_json: raw_counts arity mismatch"
  in
  let* exposure = number "exposure" in
  let* raw_exposure = number "raw_exposure" in
  let* scale = number "scale" in
  let* () =
    if exposure < 0. || raw_exposure < 0. then
      Error "Rate_estimator.of_json: negative exposure"
    else if scale <= 0. then Error "Rate_estimator.of_json: non-positive scale"
    else Ok ()
  in
  let* last_at = optional "last_at" in
  Ok { levels; half_life; counts; exposure; raw_counts; raw_exposure; scale; last_at }

let pp ppf t =
  Format.fprintf ppf "@[<v>exposure %.3e core-seconds, %d failures" t.raw_exposure (total_count t);
  for level = 1 to t.levels do
    Format.fprintf ppf "@,  level %d: %d events, %.3e /core-second" level
      t.raw_counts.(level - 1)
      (rate_per_core_second t ~level)
  done;
  Format.fprintf ppf "@]"
