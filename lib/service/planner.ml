open Ckpt_model
module Pool = Ckpt_parallel.Pool
module Chaos = Ckpt_chaos.Chaos

type resilience = {
  max_attempts : int;
  deadline_ms : float;
  breaker_threshold : int;
  breaker_cooldown : int;
  fallback : bool;
}

let default_resilience =
  { max_attempts = 3;
    deadline_ms = 10_000.;
    breaker_threshold = 5;
    breaker_cooldown = 16;
    fallback = true }

let check_resilience r =
  if r.max_attempts < 1 then invalid_arg "Planner: max_attempts < 1";
  if Float.is_nan r.deadline_ms || r.deadline_ms <= 0. then
    invalid_arg "Planner: deadline_ms must be positive";
  if r.breaker_threshold < 0 then invalid_arg "Planner: breaker_threshold < 0";
  if r.breaker_cooldown < 1 then invalid_arg "Planner: breaker_cooldown < 1"

type t = {
  cache : Optimizer.plan Lru_cache.t;
  metrics : Metrics.t;
  precision : int;
  resilience : resilience;
  chaos : Chaos.t option;
  (* Breaker state, the canonical-form memo and the solve sequence
     counter are only touched by the coordinator (solve_batch / replan
     callers), never by pool workers, so they need no lock. *)
  mutable seq : int;  (* chaos key of the next uncached solve *)
  mutable consecutive_failures : int;
  mutable open_remaining : int;  (* > 0: breaker open, skip primary *)
  mutable canon_memo : (Optimizer.problem * int64) option;
      (* last problem fingerprinted, by physical identity, as the FNV
         accumulator after folding its canonical form: batch clients
         send one problem object across a whole batch, so the expensive
         half of the key — rendering and hashing ~400 canonical bytes —
         happens once, not per query *)
}

let create ?(cache_capacity = 4096) ?(precision = Fingerprint.default_precision)
    ?(resilience = default_resilience) ?chaos metrics =
  check_resilience resilience;
  { cache = Lru_cache.create ~capacity:cache_capacity;
    metrics;
    precision;
    resilience;
    chaos;
    seq = 0;
    consecutive_failures = 0;
    open_remaining = 0;
    canon_memo = None }

let cache t = t.cache
let breaker_open t = t.open_remaining > 0

let canonical_hash t p =
  match t.canon_memo with
  | Some (p', h) when p' == p -> h
  | _ ->
      let h =
        Fingerprint.hash_fold Fingerprint.hash_init
          (Fingerprint.canonical ~precision:t.precision p)
      in
      t.canon_memo <- Some (p, h);
      h

(* The key hashes the byte sequence
   [canonical ^ "|solution=" ^ ... ^ "|delta=" ^ f delta], folded piece
   by piece so the composite string is never built.  The canonical
   prefix's accumulator is memoized per problem object — the two
   together take the key off the batch critical path.  Coordinator-only
   (it reads the memo). *)
let query_key t (q : Protocol.query) =
  let f = Fingerprint.float_repr ~precision:t.precision in
  let h = canonical_hash t q.Protocol.problem in
  let h = Fingerprint.hash_fold h "|solution=" in
  let h = Fingerprint.hash_fold h (Protocol.solution_to_string q.Protocol.solution) in
  let h = Fingerprint.hash_fold h "|fixed_n=" in
  let h =
    Fingerprint.hash_fold h
      (match q.Protocol.fixed_n with None -> "free" | Some n -> f n)
  in
  let h = Fingerprint.hash_fold h "|delta=" in
  let h = Fingerprint.hash_fold h (f q.Protocol.delta) in
  Fingerprint.hash_hex h

(* What an uncached query solves.  Ml_opt, Ml_ori and Sl_opt are rows of
   [Optimizer.solve_batch], their problem checked here, so a bad one
   fails before any row is cut.  Sl_ori is Young's closed form, computed
   here: it has no fixed point to starve and no estimate to poison, so
   no solver fault applies to it, and a retry would recompute the same
   plan.  Raises whatever the model raises on a problem it rejects. *)
type target = Row of Optimizer.batch_job | Closed of Optimizer.plan

let target_of (q : Protocol.query) =
  let p = q.Protocol.problem in
  let row p fixed_n =
    Optimizer.check_problem p;
    Row (Optimizer.batch_job ~delta:q.Protocol.delta ?fixed_n p)
  in
  match (q.Protocol.solution, q.Protocol.fixed_n) with
  | Protocol.Ml_opt, fixed_n -> row p fixed_n
  | Protocol.Ml_ori, n ->
      row p
        (Some
           (Option.value n
              ~default:(Speedup.search_upper_bound p.Optimizer.speedup ~default:1e9)))
  | Protocol.Sl_opt, fixed_n -> row (Optimizer.single_level_problem p) fixed_n
  | Protocol.Sl_ori, n -> Closed (Optimizer.sl_ori_scale ?n p)

let run_query_outcome ?inject q =
  match target_of q with
  | Row job ->
      Optimizer.classify (Optimizer.solve_batch [| { job with Optimizer.inject } |]).(0)
  | Closed plan -> Optimizer.classify plan

let run_query q = Optimizer.plan_of_outcome (run_query_outcome q)

(* Rows per [Optimizer.solve_batch] call in a first round.  Segments are
   cut from the rows alone, consecutively in submission order, never by
   pool size: the warm-start chains inside a segment decide each plan's
   bits, so this is what keeps every answer the same for any worker
   count.  16 is at least the rows of a typical request (a batch-plan of
   16, a sweep of 8), which then solves as one batch. *)
let segment_rows = 16

(* One [Optimizer.solve_batch] call.  If it raises, its rows are re-run
   one at a time, so only the row that raises answers with its
   exception. *)
let rec solve_segment jobs =
  match Optimizer.solve_batch jobs with
  | plans -> Array.map Result.ok plans
  | exception e when Array.length jobs = 1 -> [| Error e |]
  | exception _ -> Array.map (fun job -> (solve_segment [| job |]).(0)) jobs

(* Solve [jobs] in consecutive segments of at most [per] rows, fanned
   over the pool when there is more than one.  Each row comes back with
   its plan (or the exception it raised) and its share of its segment's
   wall time. *)
let solve_rows ?pool ~per jobs =
  let n = Array.length jobs in
  let segments =
    Array.init ((n + per - 1) / per) (fun s ->
        Array.sub jobs (s * per) (min per (n - (s * per))))
  in
  let run segment =
    let t0 = Metrics.now_ms () in
    let rows = solve_segment segment in
    let ms = (Metrics.now_ms () -. t0) /. float_of_int (Array.length segment) in
    Array.map (fun row -> (row, ms)) rows
  in
  Array.concat
    (Array.to_list
       (match pool with
       | Some pool when Array.length segments > 1 -> Pool.map pool ~f:run segments
       | _ -> Array.map run segments))

(* An uncached query on its way through the rounds: its chaos key, and
   whether the breaker (open at batch entry) skips its primary path. *)
type miss = { query : Protocol.query; seq : int; skip : bool }

let solve_error e =
  Protocol.error_v "solve-failure"
    (match e with Invalid_argument m | Failure m -> m | e -> Printexc.to_string e)

let circuit_open =
  Protocol.error_v "circuit-open"
    "multilevel path suspended after repeated failures; serving closed-form \
     fallback"

(* The primary (requested) path of every miss, in rounds.  Round 0
   solves each miss the breaker did not skip, its rows in segments.
   Round k > 0 solves each row that is still failing on its own, as a
   one-row batch: the cold solve a lone retry is.  Every row of round k
   carries its attempt-k fault, drawn here on the coordinator in
   submission order, so the schedule is a pure function of (seed, key,
   attempt) — and nothing sleeps between rounds, since an injected
   fault is not contention that waiting could clear.

   A row leaves at its first converged plan.  It fails for good when it
   raises (permanent: retrying cannot change a rejected problem), when
   the deadline has passed before a round (an in-flight solve cannot be
   interrupted, so the deadline bounds retrying, not one solve), or when
   its attempts are spent.  Returns each miss's [Ok (plan, attempts)] or
   [Error reason]; [ms] accumulates each miss's solve time. *)
let primary ?pool t misses ms =
  let r = t.resilience in
  let deadline = Metrics.now_ms () +. r.deadline_ms in
  let result = Array.map (fun _ -> Error circuit_open) misses in
  (* Fold attempt [k]'s outcome into miss [i]; true if it goes again. *)
  let settle i k = function
    | Ok plan -> (
        match Optimizer.classify plan with
        | Optimizer.Converged plan ->
            result.(i) <- Ok (plan, k + 1);
            false
        | Optimizer.Diverged _ ->
            result.(i) <-
              Error
                (Protocol.error_v ~attempts:(k + 1) "solver-diverged"
                   "outer fixed point hit its iteration cap before the mu drift \
                    converged");
            true
        | Optimizer.Non_finite _ ->
            result.(i) <-
              Error
                (Protocol.error_v ~attempts:(k + 1) "solver-non-finite"
                   "expected wall clock is unbounded at this failure burden");
            true)
    | Error e ->
        result.(i) <- Error { (solve_error e) with Protocol.attempts = k + 1 };
        false
  in
  let rec round k live =
    if k >= r.max_attempts || List.is_empty live then ()
    else if k > 0 && Metrics.now_ms () >= deadline then
      List.iter
        (fun (i, _) ->
          result.(i) <-
            Error
              (Protocol.error_v ~attempts:k "deadline-exceeded"
                 (Printf.sprintf "retry budget (%g ms) exhausted after %d attempts"
                    r.deadline_ms k)))
        live
    else begin
      let fault i =
        Option.bind t.chaos (fun ch ->
            Chaos.solver_fault ch ~index:misses.(i).seq ~attempt:k)
      in
      let jobs =
        Array.of_list
          (List.map (fun (i, job) -> { job with Optimizer.inject = fault i }) live)
      in
      let solved = solve_rows ?pool ~per:(if k = 0 then segment_rows else 1) jobs in
      List.iteri (fun x (i, _) -> ms.(i) <- ms.(i) +. snd solved.(x)) live;
      round (k + 1) (List.filteri (fun x (i, _) -> settle i k (fst solved.(x))) live)
    end
  in
  let live = ref [] in
  for i = Array.length misses - 1 downto 0 do
    if not misses.(i).skip then begin
      let t0 = Metrics.now_ms () in
      (match target_of misses.(i).query with
      | Row job -> live := (i, job) :: !live
      | Closed plan -> ignore (settle i 0 (Ok plan))
      | exception e -> ignore (settle i 0 (Error e)));
      ms.(i) <- Metrics.now_ms () -. t0
    end
  done;
  round 0 !live;
  result

(* The degraded chain: cheaper, better-conditioned solutions in quality
   order.  sl-opt still optimizes interval and scale over the collapsed
   hierarchy; sl-ori (Young) is a closed form that cannot diverge.  The
   fallback solves run without injection — chaos targets primary solves,
   and the chain is the mechanism under test, not the subject. *)
let fallback_candidates (q : Protocol.query) =
  match q.Protocol.solution with
  | Protocol.Ml_opt | Protocol.Ml_ori -> [ Protocol.Sl_opt; Protocol.Sl_ori ]
  | Protocol.Sl_opt -> [ Protocol.Sl_ori ]
  | Protocol.Sl_ori -> []

(* Every failed miss down the chain, one pass per rung: the sl-opt rows
   through the same segment solver — each [single_level_problem] is a
   fresh hierarchy, so they solve cold, exactly as they would alone —
   then Young's closed form for whatever is left.  A rung that cannot be
   built or does not converge hands the miss to the next one. *)
let fallback ?pool misses failed ms =
  let served = Array.make (Array.length misses) None in
  let serve i solution plan =
    match Optimizer.classify plan with
    | Optimizer.Converged plan -> served.(i) <- Some (solution, plan)
    | Optimizer.Diverged _ | Optimizer.Non_finite _ -> ()
  in
  List.iter
    (fun solution ->
      let rows = ref [] in
      for i = Array.length misses - 1 downto 0 do
        let q = misses.(i).query in
        if
          failed.(i)
          && Option.is_none served.(i)
          && List.mem solution (fallback_candidates q)
        then
          match target_of { q with Protocol.solution } with
          | Row job -> rows := (i, job) :: !rows
          | Closed plan -> serve i solution plan
          | exception _ -> ()
      done;
      let rows = Array.of_list !rows in
      let solved = solve_rows ?pool ~per:segment_rows (Array.map snd rows) in
      Array.iteri
        (fun x (i, _) ->
          let outcome, share = solved.(x) in
          ms.(i) <- ms.(i) +. share;
          Result.iter (serve i solution) outcome)
        rows)
    [ Protocol.Sl_opt; Protocol.Sl_ori ];
  served

(* Every miss end to end: the primary rounds, then the fallback chain
   for the misses they failed.  Returns, per miss, the retries spent,
   the answer and the solve time. *)
let solve_misses ?pool t misses =
  let ms = Array.make (Array.length misses) 0. in
  let primary = if Array.length misses = 0 then [||] else primary ?pool t misses ms in
  let failed = Array.map Result.is_error primary in
  let served =
    if t.resilience.fallback && Array.mem true failed then fallback ?pool misses failed ms
    else Array.make (Array.length misses) None
  in
  Array.mapi
    (fun i -> function
      | Ok (plan, attempts) ->
          (attempts - 1, Ok { Protocol.plan; cached = false; degraded = None }, ms.(i))
      | Error reason ->
          ( max 0 (reason.Protocol.attempts - 1),
            (match served.(i) with
            | Some (fallback, plan) ->
                Ok
                  { Protocol.plan;
                    cached = false;
                    degraded = Some { Protocol.fallback; reason } }
            | None -> Error reason),
            ms.(i) ))
    primary

(* Coordinator-side bookkeeping for one miss's outcome, in submission
   order: count-based breaker (open after [breaker_threshold]
   consecutive primary failures, serve fallbacks for [breaker_cooldown]
   requests, then re-try the primary path) plus the resilience
   counters.  The primary failed unless the answer is a healthy plan. *)
let fold_outcome t ~skipped ~retries outcome =
  let primary_failed, degraded =
    match outcome with
    | Ok { Protocol.degraded = None; _ } -> (false, false)
    | Ok { Protocol.degraded = Some _; _ } -> (true, true)
    | Error _ -> (true, false)
  in
  if retries > 0 then Metrics.add_retries t.metrics retries;
  if degraded then Metrics.incr_degraded t.metrics;
  let r = t.resilience in
  if r.breaker_threshold > 0 && not skipped then begin
    if primary_failed then begin
      t.consecutive_failures <- t.consecutive_failures + 1;
      if t.consecutive_failures >= r.breaker_threshold then begin
        t.consecutive_failures <- 0;
        t.open_remaining <- r.breaker_cooldown;
        Metrics.incr_breaker_trip t.metrics
      end
    end
    else t.consecutive_failures <- 0
  end

(* Decide, before any solve, whether this uncached request may try the
   primary path.  Consumes one cooldown tick when open. *)
let decide_skip t =
  if t.open_remaining > 0 then begin
    t.open_remaining <- t.open_remaining - 1;
    true
  end
  else false

let next_miss t query =
  let skip = decide_skip t in
  let seq = t.seq in
  t.seq <- seq + 1;
  { query; seq; skip }

(* The solver work behind one solved batch's answers, added to the
   metrics once, on the coordinator: a row per served plan (a degraded
   answer counts its fallback's plan, a closed form zero iterations). *)
let record_work t solved =
  let rows = ref 0 and inner = ref 0 and outer = ref 0 and f_evals = ref 0 in
  for i = 0 to Array.length solved - 1 do
    match solved.(i) with
    | _, Ok { Protocol.plan; _ }, _ ->
        incr rows;
        inner := !inner + plan.Optimizer.inner_iterations;
        outer := !outer + plan.Optimizer.outer_iterations;
        f_evals := !f_evals + plan.Optimizer.f_evals
    | _, Error _, _ -> ()
  done;
  if !rows > 0 then
    Metrics.add_solver_work t.metrics ~rows:!rows ~inner:!inner ~outer:!outer
      ~f_evals:!f_evals

(* A replan solves a *fitted* problem: the template query's spec and
   overhead laws are replaced by the session estimates.  Never cached —
   the estimates move with every observe, so a fingerprint hit would
   serve stale parameters — and timed into its own metrics series.  It
   is a one-miss batch on the coordinator, so it gets per-request
   breaker granularity. *)
let replan t ~rates ~costs ~prior_strength (q : Protocol.query) =
  let p = q.Protocol.problem in
  let fit () =
    let spec =
      Ckpt_adaptive.Rate_estimator.to_spec ~prior_strength rates ~like:p.Optimizer.spec
    in
    let levels = Ckpt_adaptive.Cost_estimator.calibrated_levels costs ~prior:p.Optimizer.levels in
    { p with Optimizer.spec; levels }
  in
  match fit () with
  | exception Invalid_argument m -> Error (Protocol.error_v "invalid-request" m)
  | fitted ->
      let miss = next_miss t { q with Protocol.problem = fitted } in
      let solved = solve_misses t [| miss |] in
      record_work t solved;
      let retries, outcome, ms = solved.(0) in
      Metrics.record_replan_ms t.metrics ms;
      fold_outcome t ~skipped:miss.skip ~retries outcome;
      Result.map (fun answer -> (answer, fitted)) outcome

let solve_batch ?pool t queries =
  let n = Array.length queries in
  Metrics.add_queries t.metrics n;
  let results = Array.make n (Error (Protocol.error_v "internal" "unset")) in
  (* Pass 1: serve cache hits, collapse duplicates, collect unique
     misses.  [slot_of.(i)]: where query [i]'s plan comes from.  Chaos
     keys and breaker skip decisions are fixed here, in submission
     order, so the fault schedule cannot depend on worker scheduling.
     (Breaker decisions within one batch share the state at batch entry;
     outcomes fold back in submission order below — line-at-a-time
     traffic gets per-request granularity.) *)
  let slot_of = Array.make n (-1) in
  let pending = Hashtbl.create 64 in
  let miss_rev = ref [] in
  let n_miss = ref 0 in
  Array.iteri
    (fun i q ->
      let key = query_key t q in
      match Hashtbl.find_opt pending key with
      | Some slot ->
          (* Same key earlier in this batch: one solve serves both. *)
          Metrics.incr_cache_hit t.metrics;
          slot_of.(i) <- slot
      | None -> (
          match Lru_cache.find t.cache key with
          | Some plan ->
              Metrics.incr_cache_hit t.metrics;
              results.(i) <- Ok { Protocol.plan; cached = true; degraded = None }
          | None ->
              Metrics.incr_cache_miss t.metrics;
              let slot = !n_miss in
              incr n_miss;
              Hashtbl.add pending key slot;
              miss_rev := (key, next_miss t q) :: !miss_rev;
              slot_of.(i) <- slot))
    queries;
  (* Pass 2: solve the unique misses — primary rounds in segments, then
     the fallback chain (see [solve_misses]). *)
  let misses = Array.of_list (List.rev !miss_rev) in
  let solved = solve_misses ?pool t (Array.map snd misses) in
  record_work t solved;
  (* Pass 3: record, fold breaker state in submission order, cache
     healthy plans (degraded answers are never cached — the primary
     might recover on the next miss), reassemble. *)
  Array.iteri
    (fun slot (retries, outcome, ms) ->
      Metrics.record_solve_ms t.metrics ms;
      let cache_key, miss = misses.(slot) in
      (match outcome with
      | Ok { Protocol.plan; degraded = None; _ } ->
          Lru_cache.add t.cache cache_key plan
      | Ok _ | Error _ -> ());
      fold_outcome t ~skipped:miss.skip ~retries outcome)
    solved;
  (* [cached] flag: the first occurrence of a missed key did the solve;
     later in-batch duplicates were served without one. *)
  let first_seen = Hashtbl.create 64 in
  Array.iteri
    (fun i _ ->
      let slot = slot_of.(i) in
      if slot >= 0 then begin
        let cached = Hashtbl.mem first_seen slot in
        Hashtbl.replace first_seen slot ();
        results.(i) <-
          (match solved.(slot) with
          | _, Ok answer, _ -> Ok { answer with Protocol.cached }
          | _, (Error _ as e), _ -> e)
      end)
    queries;
  results
