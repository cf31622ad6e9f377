(* Per-layer metrics from a traced replay.

   Times are self times (a span minus what its child spans cover).  The
   net, service and solver-free planner times are per request or per
   call as named; solver times are per solved row; adaptive and wal
   times are per call of that op.  Counts come from the same span
   boundaries and repeat exactly for a given seed. *)

type metric = { name : string; unit : string; value : float }

let m name unit value = { name; unit; value }
let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(* The metrics that are pure counts: two replays of one seed must agree
   on every one of them. *)
let counts (r : Replay.result) =
  let c = r.Replay.counts in
  let req = c.Replay.requests in
  [ m "net.bytes_in_per_req" "bytes/req" (ratio c.Replay.bytes_in req);
    m "net.bytes_out_per_req" "bytes/req" (ratio c.Replay.bytes_out req);
    m "service.minor_words_per_req" "words/req"
      (if req = 0 then 0. else c.Replay.minor_words /. float_of_int req);
    m "planner.evictions" "count" (float_of_int r.Replay.evictions);
    m "planner.hit_ratio" "ratio" (ratio c.Replay.hits (c.Replay.hits + c.Replay.misses));
    m "solver.inner_iterations_per_row" "count/row" (ratio c.Replay.inner c.Replay.plans);
    m "solver.outer_iterations_per_row" "count/row" (ratio c.Replay.outer c.Replay.plans);
    m "solver.f_evals_per_row" "count/row" (ratio c.Replay.f_evals c.Replay.plans);
    m "solver.fallbacks" "count" (float_of_int c.Replay.fallbacks);
    m "solver.rerouted_rows" "count" (float_of_int c.Replay.rerouted);
    m "wal.fsyncs_per_op" "fsyncs/op" (ratio c.Replay.fsyncs c.Replay.appends);
    m "wal.bytes_per_op" "bytes/op" (ratio c.Replay.wal_bytes c.Replay.appends);
    m "wal.errors" "count" (float_of_int r.Replay.wal_errors) ]

(* [inproc_us]: untraced in-process CPU time per request; [overhead_pct]:
   what tracing added to it; [server_us]: the socket run's server CPU
   time per request; [retained_samples]: the latency samples the server
   holds after the socket run; [degraded]: fallback answers of the
   in-process service fed the replayed lines. *)
let all (r : Replay.result) ~inproc_us ~overhead_pct ~server_us ~retained_samples ~degraded =
  let ns, count = Spans.totals r.Replay.spans in
  let self name = ns.(Spans.id_of name) and calls name = count.(Spans.id_of name) in
  let c = r.Replay.counts in
  let per_request names =
    ratio (List.fold_left (fun acc n -> acc + self n) 0 names) c.Replay.requests /. 1e3
  in
  let per_call name = ratio (self name) (calls name) /. 1e3 in
  let per_row name rows = ratio (self name) rows /. 1e3 in
  [ m "net.frame_us" "us" (per_request [ "net.frame_read"; "net.frame_write" ]);
    m "net.envelope_us" "us" (per_request [ "net.envelope" ]);
    m "net.unattributed_us" "us" (server_us -. inproc_us);
    m "service.parse_us" "us" (per_request [ "service.parse" ]);
    m "service.encode_us" "us" (per_request [ "service.encode" ]);
    m "service.retained_samples" "count" (float_of_int retained_samples);
    m "planner.key_us" "us" (per_call "planner.key");
    m "planner.lookup_us" "us" (per_call "planner.lookup");
    m "planner.insert_us" "us" (per_call "planner.insert");
    m "planner.degraded" "count" (float_of_int degraded);
    m "solver.plan_us_per_row" "us" (per_row "solver.plan" c.Replay.rows.(0));
    m "solver.batch_us_per_row" "us" (per_row "solver.batch" c.Replay.rows.(1));
    m "solver.sweep_us_per_row" "us" (per_row "solver.sweep" c.Replay.rows.(2));
    m "adaptive.observe_us" "us" (per_call "adaptive.observe");
    m "adaptive.calibrate_us" "us" (per_call "adaptive.calibrate");
    m "adaptive.estimate_us" "us" (per_call "adaptive.estimate");
    m "adaptive.replan_us" "us" (per_call "adaptive.replan");
    m "wal.append_us" "us" (per_call "wal.append");
    m "wal.snapshot_us" "us" (per_call "wal.snapshot");
    m "trace.overhead_pct" "%" overhead_pct;
    m "trace.inproc_us" "us" inproc_us ]
  @ counts r
