(* The traced replay: one process serves a workload's request stream by
   calling each layer's public entry points in the order ckpt_serve does,
   with a span around every call.

   Per request:
     Frame.read_line (over a socketpair)       net.frame_read
     Json.parse, as Server.envelope_of_line    net.envelope
     Wire.parse_request                        service.parse
     Planner.query_key, per row                planner.key
     Sharded_cache.find, per distinct key      planner.lookup
     Optimizer.solve_batch on the misses       solver.plan | solver.batch | solver.sweep
     Sharded_cache.add, per solved row         planner.insert
     Durable.persist before a mutating op      wal.append
     Rate/Cost_estimator.observe_all           adaptive.observe
     Scr_log.parse + Account.run + Fit.report  adaptive.calibrate
     Service.handle_line_string on the session adaptive.estimate
     Planner.replan                            adaptive.replan
     Wire.write_*_response / Json.to_string    service.encode
     Durable.cut every 256 requests            wal.snapshot
     Frame.write_line                          net.frame_write

   The replay covers the healthy path only (no chaos, every row
   converges); anything else raises, which fails the run.  Its responses
   are compared byte for byte with [Service.handle_line_string] fed the
   same lines, and its work counters with the service's
   ([counter_mismatches]), so it cannot drift from what the server does. *)

open Ckpt_model
module Json = Ckpt_json.Json
module Frame = Ckpt_net.Frame
module Wal = Ckpt_net.Wal
module Durable = Ckpt_net.Durable
module Server = Ckpt_net.Server
module Service = Ckpt_service.Service
module Planner = Ckpt_service.Planner
module Protocol = Ckpt_service.Protocol
module Wire = Ckpt_service.Wire
module Metrics = Ckpt_service.Metrics
module Sharded_cache = Ckpt_service.Sharded_cache
module Rate_estimator = Ckpt_adaptive.Rate_estimator
module Cost_estimator = Ckpt_adaptive.Cost_estimator
module Telemetry = Ckpt_adaptive.Telemetry
module Scr_log = Ckpt_calibrate.Scr_log
module Account = Ckpt_calibrate.Account
module Fit = Ckpt_calibrate.Fit

(* The server configuration the benchmark runs ckpt_serve with: its
   cache capacity and snapshot interval are passed on its command line,
   and it keeps the default number of snapshots. *)
let cache_capacity = 4096
let snapshot_interval = Server.default_config.Server.snapshot_interval

(* Counts, recorded at the span boundaries. *)
type counts = {
  mutable requests : int;
  mutable bytes_in : int;
  mutable bytes_out : int;
  mutable minor_words : float;  (* inside service.parse and service.encode *)
  mutable hits : int;
  mutable misses : int;
  rows : int array;  (* solve_batch rows, indexed plan / batch / sweep *)
  mutable rerouted : int;  (* rows the batch solver did not serve, solved by the classic path *)
  mutable plans : int;  (* solver plans produced: batch rows and replans *)
  mutable inner : int;
  mutable outer : int;
  mutable f_evals : int;
  mutable fallbacks : int;
  mutable appends : int;
  mutable fsyncs : int;
  mutable wal_bytes : int;
  mutable snapshots : int;
}

let zero_counts () =
  { requests = 0; bytes_in = 0; bytes_out = 0; minor_words = 0.; hits = 0; misses = 0;
    rows = Array.make 3 0; rerouted = 0; plans = 0; inner = 0; outer = 0; f_evals = 0;
    fallbacks = 0; appends = 0; fsyncs = 0; wal_bytes = 0; snapshots = 0 }

type t = {
  spans : Spans.t;
  mutable c : counts;
  service : Service.t;  (* owns the planner, the metrics and the session Durable.cut saves *)
  metrics : Metrics.t;
  planner : Planner.t;
  estimator : Service.t;  (* answers estimate from [service]'s session *)
  durable : Durable.t option;
  mutable served : int;  (* requests answered, warm-up included *)
  mutable last_snapshot_at : int;
  client : Unix.file_descr;
  server : Unix.file_descr;
  client_reader : Frame.reader;
  server_reader : Frame.reader;
  buf : Buffer.t;
}

let s_request = Spans.id_of "request"
let s_frame_read = Spans.id_of "net.frame_read"
let s_frame_write = Spans.id_of "net.frame_write"
let s_envelope = Spans.id_of "net.envelope"
let s_parse = Spans.id_of "service.parse"
let s_encode = Spans.id_of "service.encode"
let s_key = Spans.id_of "planner.key"
let s_lookup = Spans.id_of "planner.lookup"
let s_insert = Spans.id_of "planner.insert"
let s_solver = [| Spans.id_of "solver.plan"; Spans.id_of "solver.batch"; Spans.id_of "solver.sweep" |]
let s_observe = Spans.id_of "adaptive.observe"
let s_calibrate = Spans.id_of "adaptive.calibrate"
let s_estimate = Spans.id_of "adaptive.estimate"
let s_replan = Spans.id_of "adaptive.replan"
let s_append = Spans.id_of "wal.append"
let s_snapshot = Spans.id_of "wal.snapshot"

let unsupported what = failwith ("replay: unsupported request: " ^ what)

(* A service-layer span that also counts the minor words its call
   allocates. *)
let counted t name f =
  if not t.spans.Spans.on then f ()
  else begin
    let w0 = Gc.minor_words () in
    let v = Spans.span t.spans name f in
    t.c.minor_words <- t.c.minor_words +. (Gc.minor_words () -. w0);
    v
  end

let count_plan t (plan : Optimizer.plan) =
  t.c.plans <- t.c.plans + 1;
  t.c.inner <- t.c.inner + plan.Optimizer.inner_iterations;
  t.c.outer <- t.c.outer + plan.Optimizer.outer_iterations;
  t.c.f_evals <- t.c.f_evals + plan.Optimizer.f_evals;
  t.c.fallbacks <- t.c.fallbacks + plan.Optimizer.fallbacks

(* ---------------- the planner path (Planner.solve_batch, healthy) ---------------- *)

let batch_job (q : Protocol.query) =
  match (q.Protocol.solution, q.Protocol.fixed_n) with
  | Protocol.Ml_opt, fixed_n ->
      Optimizer.check_problem q.Protocol.problem;
      Optimizer.batch_job ~delta:q.Protocol.delta ?fixed_n q.Protocol.problem
  | _ -> unsupported "a solution other than ml-opt"

let solve_queries t ~solver queries =
  let n = Array.length queries in
  Metrics.add_queries t.metrics n;
  let cache = Planner.cache t.planner in
  let results = Array.make n None in
  let slot_of = Array.make n (-1) in
  let pending = Hashtbl.create 16 in
  let misses = ref [] and n_miss = ref 0 in
  Array.iteri
    (fun i q ->
      let key = Spans.span t.spans s_key (fun () -> Planner.query_key t.planner q) in
      match Hashtbl.find_opt pending key with
      | Some slot ->
          Metrics.incr_cache_hit t.metrics;
          t.c.hits <- t.c.hits + 1;
          slot_of.(i) <- slot
      | None -> (
          match Spans.span t.spans s_lookup (fun () -> Sharded_cache.find cache key) with
          | Some plan ->
              Metrics.incr_cache_hit t.metrics;
              t.c.hits <- t.c.hits + 1;
              results.(i) <- Some { Protocol.plan; cached = true; degraded = None }
          | None ->
              Metrics.incr_cache_miss t.metrics;
              t.c.misses <- t.c.misses + 1;
              Hashtbl.add pending key !n_miss;
              slot_of.(i) <- !n_miss;
              incr n_miss;
              misses := (key, q) :: !misses))
    queries;
  let misses = Array.of_list (List.rev !misses) in
  let plans =
    if Array.length misses = 0 then [||]
    else begin
      t.c.rows.(solver) <- t.c.rows.(solver) + Array.length misses;
      let t0 = Metrics.now_ms () in
      (* Planner.solve_batch sends a row the batch solver did not
         converge, or a whole stripe it raised on, down the classic
         per-query path, timing each such row. *)
      let classic (_, q) =
        t.c.rerouted <- t.c.rerouted + 1;
        let t1 = Metrics.now_ms () in
        let outcome =
          Spans.span t.spans s_solver.(solver) (fun () -> Planner.run_query_outcome q)
        in
        (outcome, Some (Metrics.now_ms () -. t1))
      in
      let solved =
        match
          Spans.span t.spans s_solver.(solver) (fun () ->
              Optimizer.solve_batch (Array.map (fun (_, q) -> batch_job q) misses))
        with
        | plans ->
            Array.mapi
              (fun i plan ->
                match Optimizer.classify plan with
                | Optimizer.Converged _ as outcome -> (outcome, None)
                | Optimizer.Diverged _ | Optimizer.Non_finite _ -> classic misses.(i))
              plans
        | exception _ -> Array.map classic misses
      in
      let per_row_ms = (Metrics.now_ms () -. t0) /. float_of_int (Array.length misses) in
      Array.mapi
        (fun slot (outcome, ms) ->
          match outcome with
          | Optimizer.Converged plan ->
              count_plan t plan;
              Metrics.record_solve_ms t.metrics (Option.value ms ~default:per_row_ms);
              Spans.span t.spans s_insert (fun () ->
                  Sharded_cache.add cache (fst misses.(slot)) plan);
              plan
          | Optimizer.Diverged _ | Optimizer.Non_finite _ ->
              unsupported "a row the classic path did not converge either")
        solved
    end
  in
  let first_seen = Hashtbl.create 16 in
  Array.mapi
    (fun i r ->
      match r with
      | Some answer -> Ok answer
      | None ->
          let slot = slot_of.(i) in
          let cached = Hashtbl.mem first_seen slot in
          Hashtbl.replace first_seen slot ();
          Ok { Protocol.plan = plans.(slot); cached; degraded = None })
    results

(* ---------------- the stateful ops (Service, inline) ---------------- *)

let fresh_session levels =
  (Rate_estimator.create ~levels (), Cost_estimator.create ~levels ())

let invalid m = Error (Protocol.error_v "invalid-request" m)

let session t = Service.session_estimators t.service

let observe_into t events (rates, costs) =
  match
    Spans.span t.spans s_observe (fun () ->
        (Rate_estimator.observe_all rates events, Cost_estimator.observe_all costs events))
  with
  | rates, costs ->
      Service.restore_session t.service ~rates ~costs;
      Ok (rates, costs)
  | exception Invalid_argument m -> invalid m

let handle_observe t ?id events =
  let session =
    match session t with
    | Some s -> s
    | None -> (
        match
          List.find_map
            (function Telemetry.Run_start { levels; _ } -> Some levels | _ -> None)
            events
        with
        | Some levels when levels > 0 -> fresh_session levels
        | _ -> unsupported "an observe without a start event")
  in
  Result.map
    (fun (rates, _) () ->
      Protocol.observe_response ?id ~events:(List.length events)
        ~failures:(Rate_estimator.total_count rates) ~exposure:(Rate_estimator.exposure rates)
        ())
    (observe_into t events session)

let no_telemetry =
  Protocol.error_v "no-telemetry" "no exposure observed yet: send an \"observe\" request first"

let with_session t f =
  match session t with
  | Some (rates, costs) when Rate_estimator.exposure rates > 0. -> f rates costs
  | _ -> Error no_telemetry

let replan t ~rates ~costs ~prior_strength query =
  Metrics.add_queries t.metrics 1;
  let r =
    Spans.span t.spans s_replan (fun () ->
        Planner.replan t.planner ~rates ~costs ~prior_strength query)
  in
  Result.iter (fun ((a : Protocol.answer), _) -> count_plan t a.Protocol.plan) r;
  r

let handle_calibrate t ~(query : Protocol.query) ~log ~prior_strength =
  let problem = query.Protocol.problem in
  let levels = Array.length problem.Optimizer.levels in
  let session =
    match session t with
    | Some (rates, costs) when Rate_estimator.levels rates = levels -> (rates, costs)
    | Some _ -> unsupported "a calibrate whose level count differs from the session's"
    | None -> fresh_session levels
  in
  let i = Spans.enter t.spans s_calibrate in
  Fun.protect ~finally:(fun () -> Spans.leave t.spans i) @@ fun () ->
  let parsed = Scr_log.parse log in
  let default_scale = problem.Optimizer.spec.Ckpt_failures.Failure_spec.baseline_scale in
  let accounted =
    Account.run (Account.config ~default_scale ~levels ()) parsed.Scr_log.records
  in
  match observe_into t accounted.Account.events session with
  | Error e -> Error e
  | Ok (rates, costs) ->
      if Rate_estimator.exposure rates <= 0. then unsupported "a calibrate log without exposure"
      else
        Result.map
          (fun ((answer : Protocol.answer), fitted) ->
            let report =
              Fit.report ~prior_strength ~log:parsed ~totals:accounted.Account.totals
                ~template:problem ~rates ~costs ()
            in
            (answer, fitted, Fit.report_to_json report))
          (replan t ~rates ~costs ~prior_strength query)

(* Service's durability gate: the line is on disk before the op
   mutates the session.  WAL counts are taken on traced passes only:
   reading them stats the WAL's segments. *)
let persisted t line k =
  match t.durable with
  | None -> k ()
  | Some d when not t.spans.Spans.on -> Result.bind (Durable.persist d line) k
  | Some d -> (
      let p0 = Durable.persistence d in
      let r = Spans.span t.spans s_append (fun () -> Durable.persist d line) in
      let p1 = Durable.persistence d in
      t.c.appends <- t.c.appends + (p1.Durable.wal_appended - p0.Durable.wal_appended);
      t.c.fsyncs <- t.c.fsyncs + (p1.Durable.wal_fsyncs - p0.Durable.wal_fsyncs);
      t.c.wal_bytes <- t.c.wal_bytes + (p1.Durable.wal_bytes - p0.Durable.wal_bytes);
      Result.bind r k)

(* ---------------- one request ---------------- *)

let finish buf =
  let s = Buffer.contents buf in
  if Buffer.length buf > 1 lsl 20 then Buffer.reset buf else Buffer.clear buf;
  s

(* Responses built as JSON trees, as Service.respond does; the tree is
   built and rendered inside service.encode. *)
let json_response t ?id r =
  counted t s_encode (fun () ->
      match r with
      | Ok build -> Json.to_string (build ())
      | Error e ->
          Metrics.incr_errors t.metrics;
          Json.to_string (Protocol.error_response ?id e))

let serve t line =
  Metrics.incr_requests t.metrics;
  let t0 = Metrics.now_ms () in
  let envelope = counted t s_parse (fun () -> Wire.parse_request line) in
  let id = envelope.Protocol.id in
  let response =
    match envelope.Protocol.request with
    | Error e -> json_response t ?id (Error e)
    | Ok (Protocol.Plan q) ->
        let answer =
          match (solve_queries t ~solver:0 [| q |]).(0) with
          | Ok a -> a
          | Error _ -> assert false
        in
        counted t s_encode (fun () ->
            Wire.write_plan_response t.buf ?id answer;
            finish t.buf)
    | Ok (Protocol.Batch_plan { queries }) ->
        let points = solve_queries t ~solver:1 queries in
        counted t s_encode (fun () ->
            Wire.write_batch_plan_response t.buf ?id points;
            finish t.buf)
    | Ok (Protocol.Sweep { base; param; values }) ->
        let outcomes =
          solve_queries t ~solver:2 (Array.map (Protocol.sweep_point base param) values)
        in
        let points = Array.mapi (fun i v -> (v, outcomes.(i))) values in
        counted t s_encode (fun () ->
            Wire.write_sweep_response t.buf ?id ~param points;
            finish t.buf)
    | Ok (Protocol.Observe { events }) ->
        json_response t ?id (persisted t line (fun () -> handle_observe t ?id events))
    | Ok (Protocol.Estimate _) -> (
        match session t with
        | Some (rates, costs) when Rate_estimator.exposure rates > 0. ->
            (* The service's own estimate: it parses the line again and
               renders the reply, all inside the span. *)
            Spans.span t.spans s_estimate (fun () ->
                Service.restore_session t.estimator ~rates ~costs;
                Service.handle_line_string t.estimator line)
        | _ -> json_response t ?id (Error no_telemetry))
    | Ok (Protocol.Replan { query; prior_strength }) ->
        json_response t ?id
          (persisted t line (fun () ->
               with_session t (fun rates costs ->
                   Result.map
                     (fun ((a : Protocol.answer), fitted) () ->
                       Protocol.replan_response ?id ?degraded:a.Protocol.degraded
                         ~plan:a.Protocol.plan ~fitted ())
                     (replan t ~rates ~costs ~prior_strength query))))
    | Ok (Protocol.Calibrate { query; log; prior_strength; compare }) ->
        if compare then unsupported "calibrate with compare";
        json_response t ?id
          (persisted t line (fun () ->
               Result.map
                 (fun ((a : Protocol.answer), fitted, provenance) () ->
                   Protocol.calibrate_response ?id ?degraded:a.Protocol.degraded
                     ~plan:a.Protocol.plan ~fitted ~provenance ())
                 (handle_calibrate t ~query ~log ~prior_strength)))
    | Ok (Protocol.Simulate_validate _) -> unsupported "simulate-validate"
    | Ok Protocol.Stats -> unsupported "stats"
  in
  Metrics.record_batch_ms t.metrics (Metrics.now_ms () -. t0);
  response

(* The server's snapshot cadence: Durable.cut (flush the WAL, save the
   cache and session with the WAL watermark, retire the segments it
   covers) once [snapshot_interval] requests were served since the last
   cut. *)
let maybe_snapshot t =
  match t.durable with
  | Some d when t.served - t.last_snapshot_at >= snapshot_interval ->
      t.c.snapshots <- t.c.snapshots + 1;
      (match Spans.span t.spans s_snapshot (fun () -> Durable.cut d ~service:t.service ~seq:t.served) with
      | Ok _ -> ()
      | Error m -> failwith ("replay: snapshot: " ^ m));
      t.last_snapshot_at <- t.served
  | _ -> ()

let handle t ~request_id line =
  Frame.write_line t.client line;
  Spans.set_request t.spans request_id;
  let root = Spans.enter t.spans s_request in
  let line =
    match Spans.span t.spans s_frame_read (fun () -> Frame.read_line t.server_reader) with
    | Frame.Line l -> l
    | _ -> failwith "replay: socketpair read failed"
  in
  t.c.requests <- t.c.requests + 1;
  t.c.bytes_in <- t.c.bytes_in + String.length line + 1;
  ignore
    (Spans.span t.spans s_envelope (fun () ->
         match Json.parse line with
         | json -> (Json.member "id" json, Json.string_field "op" json)
         | exception _ -> (None, None)));
  let response = serve t line in
  t.served <- t.served + 1;
  maybe_snapshot t;
  Spans.span t.spans s_frame_write (fun () -> Frame.write_line t.server response);
  t.c.bytes_out <- t.c.bytes_out + String.length response + 1;
  Spans.leave t.spans root;
  match Frame.read_line t.client_reader with
  | Frame.Line r -> r
  | _ -> failwith "replay: socketpair read failed"

(* ---------------- a whole replay ---------------- *)

type result = {
  responses : string array;  (* one per stream line *)
  cpu_s : float;  (* CPU time serving the stream, warm-up excluded *)
  stats : Json.t;  (* the replay's Metrics, warm-up included *)
  spans : Spans.t;
  counts : counts;
  evictions : int;
  wal_errors : int;
}

(* [durable] is (wal dir, snapshot dir), both fresh, for the workload
   whose server runs with --wal-dir and --snapshot-dir.  A smaller
   [cache_capacity] lets a short replay evict (the tests use one). *)
let run ~trace ?(cache_capacity = cache_capacity) ?durable ~warmup lines =
  let service = Service.create ~workers:0 ~cache_capacity () in
  let estimator = Service.create ~workers:0 () in
  let client, server = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () ->
      Service.shutdown service;
      Service.shutdown estimator;
      Unix.close client;
      Unix.close server)
  @@ fun () ->
  (* The WAL and snapshot layer as ckpt_serve configures it. *)
  let durable =
    Option.map
      (fun (wal_dir, snapshot_dir) ->
        let c = Server.default_config in
        let wal =
          Wal.config ~fsync_batch:c.Server.fsync_batch ~fsync_interval_ms:c.Server.fsync_interval_ms
            ~dir:wal_dir ()
        in
        let config = Durable.config ~snapshot_dir ~snapshot_keep:c.Server.snapshot_keep ~wal () in
        match Durable.create ~log:ignore config service with
        | Ok d -> d
        | Error m -> failwith ("replay: cannot open the WAL: " ^ m))
      durable
  in
  Fun.protect ~finally:(fun () -> Option.iter Durable.close durable) @@ fun () ->
  let metrics = Service.metrics service in
  let t =
    { spans = Spans.create ~on:false ();
      c = zero_counts ();
      service;
      metrics;
      planner = Service.planner service;
      estimator;
      durable;
      served = 0;
      last_snapshot_at = 0;
      client;
      server;
      client_reader = Frame.reader client;
      server_reader = Frame.reader server;
      buf = Buffer.create 4096 }
  in
  List.iteri (fun i line -> ignore (handle t ~request_id:(-1 - i) line)) warmup;
  t.c <- zero_counts ();
  t.spans.Spans.on <- trace;
  let lines = Array.of_list lines in
  let cpu () =
    let t = Unix.times () in
    t.Unix.tms_utime +. t.Unix.tms_stime
  in
  let c0 = cpu () in
  let responses = Array.mapi (fun i line -> handle t ~request_id:i line) lines in
  let cpu_s = cpu () -. c0 in
  { responses;
    cpu_s;
    stats = Metrics.to_json metrics;
    spans = t.spans;
    counts = t.c;
    evictions = Sharded_cache.evictions (Planner.cache t.planner);
    wal_errors =
      (match durable with None -> 0 | Some d -> (Durable.persistence d).Durable.wal_errors) }

(* Stream lines whose replayed response differs from the service's own
   answer to the same lines (warm-up first), and the service's stats. *)
let mismatches ?(cache_capacity = cache_capacity) ~warmup lines (r : result) =
  let service = Service.create ~workers:0 ~cache_capacity () in
  Fun.protect ~finally:(fun () -> Service.shutdown service) @@ fun () ->
  List.iter (fun l -> ignore (Service.handle_line_string service l)) warmup;
  let bad = ref [] in
  List.iteri
    (fun i l ->
      if Service.handle_line_string service l <> r.responses.(i) then bad := i :: !bad)
    lines;
  (List.rev !bad, Service.stats_json service)

(* The work counters a replay must share with the service fed the same
   lines: the replay re-implements the planner's and the service's glue
   around the public calls it times, and the counters show that it did
   the same work, not only that it wrote the same bytes.  Returns the
   counters that differ, as (name, replay, service). *)
let work_counters =
  [ [ "requests" ]; [ "errors" ]; [ "queries" ]; [ "cache"; "hits" ]; [ "cache"; "misses" ];
    [ "solves" ]; [ "replans" ] ]

let counter_mismatches (r : result) service_stats =
  let get path json =
    List.fold_left (fun j k -> Option.bind j (Json.member k)) (Some json) path
    |> Fun.flip Option.bind Json.to_float
  in
  List.filter_map
    (fun path ->
      let mine = get path r.stats and theirs = get path service_stats in
      if mine = theirs && mine <> None then None
      else
        let show = function Some v -> Printf.sprintf "%.0f" v | None -> "-" in
        Some (String.concat "." path, show mine, show theirs))
    work_counters
