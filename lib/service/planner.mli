(** Cached, batched, failure-hardened execution of optimizer queries.

    The heart of the service: a batch of {!Protocol.query} values comes
    in, answers come out in submission order, and as little work as
    possible happens in between —

    + each query is keyed by its {!Fingerprint} plus solver options;
    + keys resident in the {!Lru_cache} are served immediately (a
      hit);
    + duplicate keys within the batch collapse onto one solve (the
      duplicates also count as hits — the solver runs once);
    + the remaining unique misses are solved as rows of
      {!Ckpt_model.Optimizer.solve_batch}, the only way the planner
      solves, each row's time recorded in {!Metrics};
    + results are written back to the cache and reassembled.

    A miss's rows are cut into consecutive segments of at most 16 rows
    in submission order, whatever the pool size, and the segments fan
    out over the {!Pool} (or run inline when no pool is given).  Inside
    a segment, rows that share a problem object warm-start from each
    other, so a plan is plan-equivalent to solving its query alone —
    same integer scale, E(T_w) within 1e-9 relative — rather than
    bit-identical to it.  Because the segments depend on the rows alone,
    every answer is byte-identical for any worker count.

    {2 Resilience}

    Every uncached solve runs under a retry-and-degrade discipline, in
    rounds:

    - round 0 solves every miss in segments; each row is classified
      ({!Ckpt_model.Optimizer.outcome}), and a [Diverged]/[Non_finite]
      row goes again, alone, in the next round, up to [max_attempts]
      attempts in all and only while the per-request [deadline_ms]
      budget lasts.  Nothing sleeps between rounds: solver faults are
      in-process and deterministic, so waiting cannot change an outcome;
    - a request whose primary (multilevel) path still fails degrades
      onto the chain [sl-opt] → Young's [sl-ori] — the answer carries
      [degraded = Some _] with the fallback used and the reason, and is
      {e never cached};
    - a count-based circuit breaker opens after [breaker_threshold]
      consecutive primary failures: the next [breaker_cooldown] uncached
      requests skip the primary solve entirely (reason ["circuit-open"])
      and are served by the chain, after which the primary is retried.

    With no chaos policy and a healthy solver only round 0 runs, and
    answers carry no resilience fields.

    Chaos solver faults are applied per row, keyed by a per-request
    sequence number assigned in submission order on the coordinator and
    by the attempt, so the full failure schedule — like the plans
    themselves — is independent of pool size. *)

(** Knobs for the retry / deadline / breaker / fallback discipline. *)
type resilience = {
  max_attempts : int;  (** solve attempts per request, >= 1 *)
  deadline_ms : float;  (** per-request retry budget, > 0 (may be [infinity]) *)
  breaker_threshold : int;  (** consecutive failures to trip; 0 disables *)
  breaker_cooldown : int;  (** fallback-only requests while open, >= 1 *)
  fallback : bool;  (** serve closed-form plans when the primary fails *)
}

val default_resilience : resilience
(** 3 attempts, 10 s deadline, breaker at 5 consecutive failures for 16
    requests, fallback on. *)

type t

val create :
  ?cache_capacity:int ->
  ?precision:int ->
  ?resilience:resilience ->
  ?chaos:Ckpt_chaos.Chaos.t ->
  Metrics.t ->
  t
(** [cache_capacity] defaults to 4096 entries and may be any positive
    count (see {!Lru_cache.create}), [precision] defaults to
    {!Fingerprint.default_precision} significant digits in cache keys.
    [chaos] injects solver faults into uncached solves (testing only).
    @raise Invalid_argument on nonsensical [resilience] values. *)

val cache : t -> Ckpt_model.Optimizer.plan Lru_cache.t

val breaker_open : t -> bool
(** Whether the circuit breaker is currently serving fallbacks only. *)

val query_key : t -> Protocol.query -> string
(** The cache key: problem fingerprint + solution + [fixed_n] +
    [delta], all at the planner's precision. *)

val run_query : Protocol.query -> Ckpt_model.Optimizer.plan
(** Uncached solve of one query, without any retry/fallback wrapping:
    [Ml_opt], [Ml_ori] and [Sl_opt] as a one-row
    {!Ckpt_model.Optimizer.solve_batch}, [Sl_ori] as Young's closed
    form.
    @raise Invalid_argument, [Failure] as the optimizer does. *)

val run_query_outcome :
  ?inject:Ckpt_chaos.Chaos.fault ->
  Protocol.query ->
  Ckpt_model.Optimizer.outcome
(** {!run_query}, classified; [inject] is the row's chaos solver fault
    ([Sl_ori] queries ignore it — Young's closed form has no fixed point
    to perturb). *)

val replan :
  t ->
  rates:Ckpt_adaptive.Rate_estimator.t ->
  costs:Ckpt_adaptive.Cost_estimator.t ->
  prior_strength:float ->
  Protocol.query ->
  (Protocol.answer * Ckpt_model.Optimizer.problem, Protocol.error) result
(** Solve the query with its problem's spec replaced by the session's
    fitted rates ([prior_strength] core-seconds of shrinkage toward the
    template's own rates) and its overhead laws calibrated to the
    observed costs; returns the answer and the fitted problem.  Replans
    bypass the cache entirely, are timed into the [replan_ms] series,
    and are solved as a one-miss batch, under the same retry/fallback
    discipline as batch solves. *)

val solve_batch :
  ?pool:Ckpt_parallel.Pool.t ->
  t ->
  Protocol.query array ->
  (Protocol.answer, Protocol.error) result array
(** [solve_batch ?pool t qs] solves every query; slot [i] holds the
    answer for [qs.(i)] — its plan, cached flag, and degraded marker if
    it came from the fallback chain — or a structured error when even
    the chain could not produce a converged plan (the error's [attempts]
    counts the solve attempts made; a bad query never kills a worker
    domain or the batch). *)
