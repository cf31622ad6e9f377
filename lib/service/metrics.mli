(** Service counters and latency summaries.

    One source of truth for everything the [stats] response and the
    shutdown report print: request/error/query counters, cache hit and
    miss totals (counted here, not in {!Lru_cache} — deduplication
    within a batch also counts as a hit), the solver work behind the
    served plans (iterations and Eq. 24 evaluations), and
    latency sample series (solves, replans, whole batches) summarized
    with {!Ckpt_numerics.Stats} plus p50/p90/p95/p99 quantiles.

    Every operation takes the internal mutex, so workers and the
    coordinator may record concurrently. *)

type t

val create : unit -> t

(** {1 Wall-clock timing} *)

val now_ms : unit -> float
(** Monotonic-enough wall clock ([Unix.gettimeofday]) in milliseconds;
    subtract two readings for a duration. *)

(** {1 Counters} *)

val incr_requests : t -> unit
val incr_errors : t -> unit

val add_queries : t -> int -> unit
(** Individual solver queries, counting each sweep point. *)

val incr_cache_hit : t -> unit
val incr_cache_miss : t -> unit

val incr_degraded : t -> unit
(** One request answered by the closed-form fallback chain. *)

val add_retries : t -> int -> unit
(** Extra solve attempts beyond the first, summed per request. *)

val incr_breaker_trip : t -> unit
(** The circuit breaker opened (primary path suspended). *)

val add_solver_work :
  t -> rows:int -> inner:int -> outer:int -> f_evals:int -> unit
(** Solver work behind served plans: [rows] plans and the sums of their
    inner/outer iteration and Eq. 24 evaluation counts. *)

(** {1 Latency series} *)

val record_solve_ms : t -> float -> unit
(** One optimizer solve (a cache miss actually computed). *)

val record_replan_ms : t -> float -> unit
(** One telemetry-driven [replan] solve (never cached, so every replan
    is a sample — the latency the adaptive control loop pays). *)

val record_batch_ms : t -> float -> unit
(** One whole [handle_batch] call. *)

(** {1 Reading} *)

type quantiles = { p50 : float; p90 : float; p95 : float; p99 : float }
(** All [0.] while the series is empty. *)

type series = {
  count : int;
  summary : Ckpt_numerics.Stats.summary option;  (** [None] before any sample *)
  quantiles : quantiles;
}

type solver_work = {
  rows : int;
  inner_iterations : int;
  outer_iterations : int;
  f_evals : int;
}
(** The {!add_solver_work} totals since {!create}. *)

type snapshot = {
  uptime_s : float;
  requests : int;
  errors : int;
  queries : int;
  cache_hits : int;
  cache_misses : int;
  hit_rate : float;  (** [hits / (hits + misses)]; [0.] before traffic *)
  degraded : int;
  retries : int;
  breaker_trips : int;
  solver : solver_work;
  solves : int;
  solve_ms : series;
  replans : int;
  replan_ms : series;
  batches : int;
  batch_ms : series;
}

val snapshot : t -> snapshot

val to_json : ?cache_evictions:int -> t -> Ckpt_json.Json.t
(** The [stats] payload: counters, cache ratios (with [cache_evictions]
    as ["evictions"] when given), the ["solver"] work counters and
    latency summaries as a JSON object.  A ["resilience"] block (degraded answers, retries,
    breaker trips) is appended only when at least one of those counters
    is nonzero, so healthy sessions serialize exactly as before. *)

val pp : Format.formatter -> t -> unit
(** The human-readable shutdown report. *)
