(** The `ckpt_serve` JSON-lines protocol.

    One request per line, one response per line, order preserved.  The
    operations:

    - [{"op":"plan", "problem":P, ...}] — one optimizer solve;
    - [{"op":"sweep", "problem":P, "param":"scale"|"te"|"alloc",
        "values":[...]}] — the capacity-planning fan-out: one solve per
      value, the base problem varied along [param];
    - [{"op":"simulate-validate", "problem":P, "replications":k,
        "seed":s}] — solve, then validate the predicted wall clock
      against [k] simulated executions;
    - [{"op":"observe", "events":[...]}] — feed
      {!Ckpt_adaptive.Telemetry} events (the {!Ckpt_adaptive.Telemetry.of_json}
      shape) into the service's session estimators;
    - [{"op":"estimate", "baseline_scale":N_b, "coverage":0.95}] —
      report the fitted per-level failure rates with exact Poisson
      confidence intervals and the observed cost means;
    - [{"op":"replan", "problem":P, "prior_strength":tau}] — re-run
      Algorithm 1 with [P]'s spec and overhead laws replaced by the
      session estimates ([tau] core-seconds of shrinkage toward [P]'s
      own rates); never cached, timed into the [replan_ms] metrics
      series;
    - [{"op":"calibrate", "problem":P, "log":[...], "prior_strength":tau,
        "compare":b}] — POST raw SCR-style log lines: they are parsed
      (totally — garbage lines become skip counts), phase-accounted into
      the session estimators, and [P] is re-planned from the fit; the
      response carries the plan, the fitted problem, a provenance report
      and (with [compare]) the Young/Daly/ML side-by-side;
    - [{"op":"stats"}] — the {!Metrics} snapshot.

    [observe]/[estimate]/[replan]/[calibrate] are stateful: they read and mutate the
    service's telemetry session, and are therefore executed inline, in
    line order, rather than fanned out — an [observe] earlier in a batch
    is visible to a [replan] later in the same batch.

    Every request accepts an optional ["id"] (any JSON value, echoed
    back), ["solution"] (["ml-opt"] default, ["ml-ori"], ["sl-opt"],
    ["sl-ori"]), ["fixed_n"] (pin the scale) and ["delta"] (outer-loop
    threshold, default 1e-9).

    Responses carry ["ok"] — [true] with the payload, or [false] with a
    structured [{"code", "message", "attempts"?}] error.  Malformed
    input can never crash a worker: {!parse_request} funnels JSON
    errors, missing fields and {!Ckpt_model.Optimizer.check_problem}
    failures (e.g. a spec/hierarchy level-count mismatch) into
    [Error _] before any query reaches the pool.

    A response answered from the closed-form fallback chain additionally
    carries ["degraded": true], the ["fallback"] solution that produced
    the plan, and a ["degraded_reason"] error explaining why the primary
    solve was abandoned. *)

type error = { code : string; message : string; attempts : int }
(** Codes: ["parse"] (not JSON), ["invalid-request"] (JSON but not a
    valid request), ["invalid-problem"] (problem fails decoding or
    {!Ckpt_model.Optimizer.check_problem}), ["solve-failure"] (the
    optimizer raised), ["solver-diverged"] (outer fixed point hit its
    iteration cap), ["solver-non-finite"] (failure burden unbounded /
    NaN estimate), ["deadline-exceeded"] (per-request retry budget ran
    out), ["circuit-open"] (breaker is serving fallbacks only),
    ["no-telemetry"] ([estimate]/[replan] before any exposure was
    observed).  [attempts] counts solve attempts actually made (0 when
    the failure precedes any solve); it is serialized only when
    positive, keeping no-retry error payloads byte-identical to the
    pre-taxonomy format. *)

val error_v : ?attempts:int -> string -> string -> error
(** [error_v code message] builds an error ([attempts] defaults to 0). *)

type solution = Ml_opt | Ml_ori | Sl_opt | Sl_ori

type query = {
  problem : Ckpt_model.Optimizer.problem;
  solution : solution;
  fixed_n : float option;
  delta : float;
}

type sweep_param = Scale | Te | Alloc

type request =
  | Plan of query
  | Batch_plan of { queries : query array }
      (** [{"op":"batch-plan", "problems":[P1; P2; ...], "solution":s,
          "fixed_n":n, "delta":d}] — K plan queries sharing the
          envelope's solution/fixed_n/delta, answered per problem in
          order.  The canonical wire shape for the planner's SoA batch
          solver.  Rejected atomically: one undecodable or invalid
          problem fails the whole request, like a bad sweep value. *)
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
      (** [{"op":"calibrate", "problem":P, "log":[lines...],
          "prior_strength":tau, "compare":bool}] — feed raw SCR-style
          log lines through the {!Ckpt_calibrate} pipeline into the
          session estimators (stateful, like [observe]: successive
          calibrates accumulate evidence) and re-plan [P] from the
          fitted parameters.  With [compare], the response also carries
          the Young/Daly/ML side-by-side. *)
  | Stats

type envelope = {
  id : Ckpt_json.Json.t option;
  op : string option;
  request : (request, error) result;
}
(** The [id] survives even when the request itself is rejected, so error
    responses can still be correlated by the client.  [op] is the line's
    ["op"] string exactly as [Json.string_field "op"] reads it from the
    parsed line — [None] for a line that is not JSON, not an object, or
    whose ["op"] is missing or not a string — whether or not the op is
    known or the request valid.  The server routes on it (in-band
    [shutdown], per-op counters) without parsing the line a second
    time. *)

val default_delta : float
(** Outer-loop threshold applied when a request omits ["delta"] (1e-9). *)

val scale_in_range : Ckpt_model.Speedup.t -> float -> bool
(** Whether [n] may be pinned as the scale: [n > 0] and the speedup
    [g(n)] is finite and positive.  [parse_request] refuses any other
    ["fixed_n"] (per problem in a [batch-plan]) and [scale] sweep value
    as ["invalid-request"], naming the value: past a quadratic's zero
    (N >= 2 n_star) the productive time [T_e / g(N)] is undefined. *)

val solution_of_string : string -> (solution, error) result
val solution_to_string : solution -> string
val sweep_param_to_string : sweep_param -> string

val ops : string list
(** The op names {!parse_request} knows, each once: a line whose op is
    not among them is answered ["invalid-request"] ("unknown op"). *)

val parse_request : string -> envelope
(** Parse and fully validate one request line; every problem it returns
    has passed [Optimizer.check_problem], and every failure is folded
    into the envelope's [Error _] with its code. *)

val sweep_point : query -> sweep_param -> float -> query
(** The query for one sweep grid point: [Scale] pins [fixed_n], [Te] and
    [Alloc] rebuild the problem with the field replaced. *)

val simulation_problem : query -> Ckpt_model.Optimizer.problem
(** The problem a plan should be simulated against: the original for ML
    solutions, {!Ckpt_model.Optimizer.single_level_problem} for SL ones
    (their plans only have a PFS level). *)

(** {1 Answers}

    What the planner hands back for a solvable query: the plan, whether
    it came from the cache, and — when the primary multilevel solve was
    abandoned — which closed-form fallback produced it and why. *)

type degraded = { fallback : solution; reason : error }

type answer = {
  plan : Ckpt_model.Optimizer.plan;
  cached : bool;
  degraded : degraded option;
}

(** {1 Responses} *)

val error_response : ?id:Ckpt_json.Json.t -> error -> Ckpt_json.Json.t

val plan_response : ?id:Ckpt_json.Json.t -> answer -> Ckpt_json.Json.t

val batch_plan_response :
  ?id:Ckpt_json.Json.t -> (answer, error) result array -> Ckpt_json.Json.t
(** Per-problem results in request order; like {!sweep_response}, one
    failed solve does not fail the batch. *)

val sweep_response :
  ?id:Ckpt_json.Json.t ->
  param:sweep_param ->
  (float * (answer, error) result) array ->
  Ckpt_json.Json.t
(** Per-point results: each grid value maps to a plan (with its cached
    flag, and degraded markers when served by a fallback) or an error;
    one bad point does not fail the sweep. *)

type validation = {
  predicted_wall_clock : float;
  simulated : Ckpt_numerics.Stats.summary;
  relative_error : float;
  completed_runs : int;
}

val validation_response :
  ?id:Ckpt_json.Json.t ->
  ?degraded:degraded ->
  cached:bool ->
  plan:Ckpt_model.Optimizer.plan ->
  validation ->
  Ckpt_json.Json.t

val observe_response :
  ?id:Ckpt_json.Json.t -> events:int -> failures:int -> exposure:float -> unit -> Ckpt_json.Json.t
(** Acknowledge an [observe]: events ingested this call, cumulative
    failure count and raw exposure of the session. *)

val estimate_response : ?id:Ckpt_json.Json.t -> Ckpt_json.Json.t -> Ckpt_json.Json.t
(** Wrap the estimate payload the service assembles (fitted rates,
    confidence intervals, cost means). *)

val replan_response :
  ?id:Ckpt_json.Json.t ->
  ?degraded:degraded ->
  plan:Ckpt_model.Optimizer.plan ->
  fitted:Ckpt_model.Optimizer.problem ->
  unit ->
  Ckpt_json.Json.t
(** The re-planned solution together with the telemetry-fitted problem
    it solves. *)

val calibrate_response :
  ?id:Ckpt_json.Json.t ->
  ?degraded:degraded ->
  ?comparison:Ckpt_json.Json.t ->
  plan:Ckpt_model.Optimizer.plan ->
  fitted:Ckpt_model.Optimizer.problem ->
  provenance:Ckpt_json.Json.t ->
  unit ->
  Ckpt_json.Json.t
(** The calibrated plan, the fitted problem it solves, the provenance
    report ({!Ckpt_calibrate.Fit.report_to_json} shape: parse/skip
    counts, per-level samples, CIs, prior weight) and — when requested —
    the Young/Daly/ML comparison. *)

val stats_response : ?id:Ckpt_json.Json.t -> Ckpt_json.Json.t -> Ckpt_json.Json.t
(** Wrap a {!Metrics.to_json} payload. *)

val response_ok : Ckpt_json.Json.t -> bool
val response_error : Ckpt_json.Json.t -> error option

val response_degraded : Ckpt_json.Json.t -> bool
(** Whether a response carries the ["degraded": true] marker. *)
