(** The concurrent batch planning service.

    Front door for `ckpt_serve` and for embedding: feed it raw JSON
    request lines, get JSON response values back in the same order.
    Internally each batch is parsed and validated up front, expanded
    (sweeps become one query per grid point), deduplicated and solved
    through {!Planner} over the domain {!Pool}, then reassembled into
    per-request responses.  [simulate-validate] requests additionally
    replay the plan through the event-driven simulator, also on the
    pool.

    The service also carries one {e telemetry session}: [observe]
    requests fold {!Ckpt_adaptive.Telemetry} events into per-level rate
    and cost estimators, [estimate] reports the fitted parameters with
    confidence intervals, and [replan] re-runs the optimizer with a
    request's problem re-parameterized by the estimates.  These stateful
    ops are executed inline in line order (never fanned out), so an
    [observe] earlier in a batch is visible to a [replan] later in the
    same one; [estimate]/[replan] before any observed exposure answer a
    ["no-telemetry"] error.

    {2 Failure handling}

    Every request is answered: malformed or corrupted lines get a
    structured [error] response, solver failures are retried and then
    degraded onto the closed-form fallback chain by the {!Planner}
    (answers marked ["degraded"]), and a crashed worker domain is
    respawned by the {!Ckpt_parallel.Pool} supervisor with its work
    requeued.  [handle_batch] itself only raises if called after
    {!shutdown}.

    When a {!Ckpt_chaos.Chaos.t} policy is installed the service also
    exercises its own fault sites: incoming request lines may be
    corrupted or truncated before parsing, and observed telemetry
    timestamps may be skewed before reaching the estimators.  Chaos
    indices for both sites are assigned in arrival order on the
    coordinator, so a given seed produces the same fault schedule — and
    the same responses — at any worker count.

    A service owns its pool; call {!shutdown} (idempotent) when done so
    the worker domains are joined. *)

type t

val create :
  ?workers:int ->
  ?cache_capacity:int ->
  ?precision:int ->
  ?resilience:Planner.resilience ->
  ?chaos:Ckpt_chaos.Chaos.t ->
  unit ->
  t
(** [workers] defaults to 1; [workers = 1] still runs through a single
    worker domain, [workers = 0] disables the pool entirely (solves run
    in the calling domain).  [cache_capacity] and [precision] configure
    the {!Planner}; [resilience] tunes its retry/breaker/fallback
    discipline.  [chaos] installs a fault-injection policy across the
    pool, the solver, the line decoder and the telemetry intake
    (testing only — omit it in production). *)

val metrics : t -> Metrics.t
val planner : t -> Planner.t

val session_estimators : t -> (Ckpt_adaptive.Rate_estimator.t * Ckpt_adaptive.Cost_estimator.t) option
(** The telemetry session's current estimators, once an [observe] has
    created them. *)

val restore_session :
  t ->
  rates:Ckpt_adaptive.Rate_estimator.t ->
  costs:Ckpt_adaptive.Cost_estimator.t ->
  unit
(** Install estimator state (typically loaded from a durable snapshot)
    as the telemetry session, replacing any current one.  Subsequent
    [observe]/[estimate]/[replan] requests continue exactly where the
    snapshotted service left off.
    @raise Invalid_argument when the two estimators disagree on the
    level count. *)

val handle_batch : t -> string list -> Ckpt_json.Json.t list
(** [handle_batch t lines] answers one response per request line, order
    preserved.  Malformed lines yield error responses; they never
    abort the batch.  A line whose handler raises (a {!set_stats_extra}
    or {!set_persist_hook} callback, or a bug) is answered with
    {!internal_response} and the rest of the batch still runs. *)

val internal_response : ?id:Ckpt_json.Json.t -> exn -> Ckpt_json.Json.t
(** The [internal] error that answers a line whose handler raised [e]:
    [{"code": "internal", "message": Printexc.to_string e}]. *)

val handle_line : t -> string -> Ckpt_json.Json.t
(** Single-request convenience over {!handle_batch}. *)

val handle_batch_lines : t -> string list -> string list
(** [handle_batch] rendered straight to wire strings: the hot
    solver-bound responses (plan, batch-plan, sweep) are streamed
    through {!Wire} into one reusable buffer instead of materializing a
    {!Ckpt_json.Json.t} tree per response.  Output is byte-identical to
    [List.map (Ckpt_json.Json.to_string ?pretty:None) (handle_batch t lines)];
    servers that write lines out verbatim should prefer this. *)

val handle_parsed_line : t -> Protocol.envelope -> string -> string
(** [handle_parsed_line t envelope line] answers [line] like
    {!handle_line_string}, from [envelope] — which must be
    [Wire.parse_request line] — instead of parsing the line again.  A
    line that chaos mangles is parsed afresh and answered from its own
    envelope.  The server parses each line once, outside its
    coordinator lock, routes on the envelope's [id] and [op], and hands
    both here. *)

val handle_line_string : t -> string -> string
(** Single-request convenience over {!handle_batch_lines}:
    [handle_parsed_line t (Wire.parse_request line) line]. *)

val stats_json : t -> Ckpt_json.Json.t
(** The current {!Metrics.to_json} payload (also served by the
    [stats] op), its cache block carrying the plan cache's evictions,
    with any {!set_stats_extra} fields appended. *)

val set_persist_hook : t -> (string -> (unit, Protocol.error) result) option -> unit
(** Durability gate for the stateful ops ([observe], [replan],
    [calibrate]): when set, the hook is called with the raw
    (post-mangle) request line {e before} the op mutates the session.
    [Ok ()] lets the op proceed; [Error e] answers the client with [e]
    and leaves the session untouched — so an acked stateful op is
    exactly one whose line the hook accepted.  Read-only ops never
    consult it.  The server installs its WAL append here; replay works
    by feeding the logged lines back through {!handle_line_string}
    with the hook unset. *)

val set_stats_extra : t -> (unit -> (string * Ckpt_json.Json.t) list) option -> unit
(** Extra top-level fields appended to the [stats] payload on every
    render — the server reports persistence health through this. *)

val shutdown : t -> unit
