module Stats = Ckpt_numerics.Stats
module Json = Ckpt_json.Json

(* Growable sample buffer; amortized O(1) append. *)
module Buffer = struct
  type t = { mutable data : float array; mutable len : int }

  let create () = { data = Array.make 64 0.; len = 0 }

  let add b x =
    if b.len = Array.length b.data then begin
      let bigger = Array.make (2 * b.len) 0. in
      Array.blit b.data 0 bigger 0 b.len;
      b.data <- bigger
    end;
    b.data.(b.len) <- x;
    b.len <- b.len + 1

  let to_array b = Array.sub b.data 0 b.len
end

type solver_work = {
  rows : int;
  inner_iterations : int;
  outer_iterations : int;
  f_evals : int;
}

type t = {
  mutex : Mutex.t;
  started_at : float;
  mutable requests : int;
  mutable errors : int;
  mutable queries : int;
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable degraded : int;
  mutable retries : int;
  mutable breaker_trips : int;
  mutable solver : solver_work;
  solve_ms : Buffer.t;
  replan_ms : Buffer.t;
  batch_ms : Buffer.t;
}

let now_ms () = Unix.gettimeofday () *. 1000.

let create () =
  { mutex = Mutex.create ();
    started_at = Unix.gettimeofday ();
    requests = 0;
    errors = 0;
    queries = 0;
    cache_hits = 0;
    cache_misses = 0;
    degraded = 0;
    retries = 0;
    breaker_trips = 0;
    solver =
      { rows = 0; inner_iterations = 0; outer_iterations = 0; f_evals = 0 };
    solve_ms = Buffer.create ();
    replan_ms = Buffer.create ();
    batch_ms = Buffer.create () }

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let incr_requests t = locked t (fun () -> t.requests <- t.requests + 1)
let incr_errors t = locked t (fun () -> t.errors <- t.errors + 1)
let add_queries t n = locked t (fun () -> t.queries <- t.queries + n)
let incr_cache_hit t = locked t (fun () -> t.cache_hits <- t.cache_hits + 1)
let incr_cache_miss t = locked t (fun () -> t.cache_misses <- t.cache_misses + 1)
let incr_degraded t = locked t (fun () -> t.degraded <- t.degraded + 1)
let add_retries t n = locked t (fun () -> t.retries <- t.retries + n)
let incr_breaker_trip t = locked t (fun () -> t.breaker_trips <- t.breaker_trips + 1)

let add_solver_work t ~rows ~inner ~outer ~f_evals =
  locked t (fun () ->
      let w = t.solver in
      t.solver <-
        { rows = w.rows + rows;
          inner_iterations = w.inner_iterations + inner;
          outer_iterations = w.outer_iterations + outer;
          f_evals = w.f_evals + f_evals })

let record_solve_ms t ms = locked t (fun () -> Buffer.add t.solve_ms ms)
let record_replan_ms t ms = locked t (fun () -> Buffer.add t.replan_ms ms)
let record_batch_ms t ms = locked t (fun () -> Buffer.add t.batch_ms ms)

type quantiles = { p50 : float; p90 : float; p95 : float; p99 : float }

let zero_quantiles = { p50 = 0.; p90 = 0.; p95 = 0.; p99 = 0. }

type series = {
  count : int;
  summary : Stats.summary option;  (** [None] before any sample *)
  quantiles : quantiles;
}

let series_of samples =
  if Array.length samples = 0 then { count = 0; summary = None; quantiles = zero_quantiles }
  else
    { count = Array.length samples;
      summary = Some (Stats.summarize samples);
      quantiles =
        { p50 = Stats.percentile samples 0.5;
          p90 = Stats.percentile samples 0.9;
          p95 = Stats.percentile samples 0.95;
          p99 = Stats.percentile samples 0.99 } }

type snapshot = {
  uptime_s : float;
  requests : int;
  errors : int;
  queries : int;
  cache_hits : int;
  cache_misses : int;
  hit_rate : float;
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

let snapshot t =
  locked t (fun () ->
      let solve_ms = series_of (Buffer.to_array t.solve_ms) in
      let replan_ms = series_of (Buffer.to_array t.replan_ms) in
      let batch_ms = series_of (Buffer.to_array t.batch_ms) in
      let lookups = t.cache_hits + t.cache_misses in
      { uptime_s = Unix.gettimeofday () -. t.started_at;
        requests = t.requests;
        errors = t.errors;
        queries = t.queries;
        cache_hits = t.cache_hits;
        cache_misses = t.cache_misses;
        hit_rate = (if lookups = 0 then 0. else float_of_int t.cache_hits /. float_of_int lookups);
        degraded = t.degraded;
        retries = t.retries;
        breaker_trips = t.breaker_trips;
        solver = t.solver;
        solves = solve_ms.count;
        solve_ms;
        replans = replan_ms.count;
        replan_ms;
        batches = batch_ms.count;
        batch_ms })

let series_json s =
  match s.summary with
  | None -> Json.Null
  | Some (sm : Stats.summary) ->
      Json.Obj
        [ ("count", Json.Number (float_of_int sm.Stats.n));
          ("mean", Json.Number sm.Stats.mean);
          ("std", Json.Number sm.Stats.std);
          ("min", Json.Number sm.Stats.min);
          ("max", Json.Number sm.Stats.max);
          ("p50", Json.Number s.quantiles.p50);
          ("p90", Json.Number s.quantiles.p90);
          ("p95", Json.Number s.quantiles.p95);
          ("p99", Json.Number s.quantiles.p99) ]

let to_json ?cache_evictions t =
  let s = snapshot t in
  let count n = Json.Number (float_of_int n) in
  Json.Obj
    ([ ("uptime_s", Json.Number s.uptime_s);
      ("requests", Json.Number (float_of_int s.requests));
      ("errors", Json.Number (float_of_int s.errors));
      ("queries", Json.Number (float_of_int s.queries));
      ("cache",
       Json.Obj
         ([ ("hits", Json.Number (float_of_int s.cache_hits));
            ("misses", Json.Number (float_of_int s.cache_misses));
            ("hit_rate", Json.Number s.hit_rate) ]
         @
         match cache_evictions with
         | Some n -> [ ("evictions", count n) ]
         | None -> []));
      ("solver",
       Json.Obj
         [ ("rows", count s.solver.rows);
           ("inner_iterations", count s.solver.inner_iterations);
           ("outer_iterations", count s.solver.outer_iterations);
           ("f_evals", count s.solver.f_evals) ]);
      ("solves", Json.Number (float_of_int s.solves));
      ("solve_ms", series_json s.solve_ms);
      ("replans", Json.Number (float_of_int s.replans));
      ("replan_ms", series_json s.replan_ms);
       ("batches", Json.Number (float_of_int s.batches));
       ("batch_ms", series_json s.batch_ms) ]
    (* The resilience block appears only once degradation machinery has
       actually fired, so healthy sessions keep the pre-PR stats shape. *)
    @
    if s.degraded = 0 && s.retries = 0 && s.breaker_trips = 0 then []
    else
      [ ("resilience",
         Json.Obj
           [ ("degraded", Json.Number (float_of_int s.degraded));
             ("retries", Json.Number (float_of_int s.retries));
             ("breaker_trips", Json.Number (float_of_int s.breaker_trips)) ]) ])

let pp_series ppf name s =
  match s.summary with
  | None -> ()
  | Some sm ->
      Format.fprintf ppf "  %-10s %d: mean %.3f ms, p50 %.3f, p90 %.3f, p95 %.3f, p99 %.3f, max %.3f@,"
        name sm.Stats.n sm.Stats.mean s.quantiles.p50 s.quantiles.p90 s.quantiles.p95
        s.quantiles.p99 sm.Stats.max

let pp ppf t =
  let s = snapshot t in
  Format.fprintf ppf "@[<v>service metrics:@,";
  Format.fprintf ppf "  requests   %d (%d errors)@," s.requests s.errors;
  Format.fprintf ppf "  queries    %d@," s.queries;
  Format.fprintf ppf "  cache      %d hits / %d misses (hit rate %.1f%%)@," s.cache_hits
    s.cache_misses (100. *. s.hit_rate);
  if s.degraded > 0 || s.retries > 0 || s.breaker_trips > 0 then
    Format.fprintf ppf "  resilience %d degraded, %d retries, %d breaker trips@,"
      s.degraded s.retries s.breaker_trips;
  (if s.solves = 0 then Format.fprintf ppf "  solves     0@,"
   else pp_series ppf "solves" s.solve_ms);
  pp_series ppf "replans" s.replan_ms;
  pp_series ppf "batches" s.batch_ms;
  Format.fprintf ppf "  uptime     %.3f s@]" s.uptime_s
