module Json = Ckpt_json.Json
module Pool = Ckpt_parallel.Pool
module Stats = Ckpt_numerics.Stats
module Chaos = Ckpt_chaos.Chaos
module Telemetry = Ckpt_adaptive.Telemetry
module Rate_estimator = Ckpt_adaptive.Rate_estimator
module Cost_estimator = Ckpt_adaptive.Cost_estimator

(* The telemetry session: what observe accumulates and estimate/replan
   read.  Only the coordinator thread touches it (stateful ops are
   handled inline, never fanned out), so no lock is needed. *)
type session = {
  mutable rates : Rate_estimator.t;
  mutable costs : Cost_estimator.t;
}

type t = {
  pool : Pool.t option;
  planner : Planner.t;
  metrics : Metrics.t;
  chaos : Chaos.t option;
  (* Chaos indices for the service-owned sites, assigned in arrival
     order by the coordinator (line mangling and telemetry skew are
     decided before any fan-out, so they are worker-count independent). *)
  mutable line_seq : int;
  mutable event_seq : int;
  mutable session : session option;
  mutable live : bool;
  (* Durability hook: consulted with the raw (post-mangle) line before a
     stateful op mutates the session, so the server can write-ahead-log
     it.  [Error] refuses the op — state unchanged, client told why. *)
  mutable persist : (string -> (unit, Protocol.error) result) option;
  (* Extra top-level fields appended to the [stats] payload (the server
     reports persistence health through this). *)
  mutable stats_extra : (unit -> (string * Json.t) list) option;
  (* The buffer the hot responses are streamed into, reused across
     calls: a fresh 4 KiB one per call would be a major-heap block each
     time.  Only the coordinator renders, like [Planner.canon_memo]. *)
  out : Buffer.t;
}

let create ?(workers = 1) ?cache_capacity ?precision ?resilience ?chaos () =
  if workers < 0 then invalid_arg "Service.create: workers < 0";
  let metrics = Metrics.create () in
  let planner = Planner.create ?cache_capacity ?precision ?resilience ?chaos metrics in
  let pool = if workers = 0 then None else Some (Pool.create ?chaos ~workers ()) in
  { pool;
    planner;
    metrics;
    chaos;
    line_seq = 0;
    event_seq = 0;
    session = None;
    live = true;
    persist = None;
    stats_extra = None;
    out = Buffer.create 4096 }

let session_estimators t = Option.map (fun s -> (s.rates, s.costs)) t.session

let restore_session t ~rates ~costs =
  if Rate_estimator.levels rates <> Cost_estimator.levels costs then
    invalid_arg "Service.restore_session: estimator level counts differ";
  t.session <- Some { rates; costs }
let metrics t = t.metrics
let planner t = t.planner
let set_persist_hook t hook = t.persist <- hook
let set_stats_extra t extra = t.stats_extra <- extra

let stats_json t =
  let base =
    Metrics.to_json
      ~cache_evictions:(Lru_cache.evictions (Planner.cache t.planner))
      t.metrics
  in
  match t.stats_extra with
  | None -> base
  | Some extra -> (
      match base with
      | Json.Obj fields -> Json.Obj (fields @ extra ())
      | other -> other)

(* One parsed request, with the span of the flat query array it owns. *)
type job = {
  envelope : Protocol.envelope;
  line : string;  (** the raw line as parsed (after any chaos mangling) *)
  offset : int;  (** first slot in the flat query array *)
  span : int;  (** number of slots *)
}

let queries_of_request = function
  | Protocol.Plan q -> [| q |]
  | Protocol.Batch_plan { queries } -> queries
  | Protocol.Sweep { base; param; values } ->
      Array.map (Protocol.sweep_point base param) values
  | Protocol.Simulate_validate { query; _ } -> [| query |]
  (* Stateful adaptive ops never enter the flat query array: they are
     handled inline, in line order, so an observe is visible to a replan
     later in the same batch. *)
  | Protocol.Observe _ | Protocol.Estimate _ | Protocol.Replan _
  | Protocol.Calibrate _ | Protocol.Stats ->
      [||]

(* A degraded answer's plan came from the single-level chain, so its
   xs arity matches the collapsed problem, not the query's solution —
   simulate it against the problem it actually solves. *)
let simulation_problem ~(answer : Protocol.answer) query =
  match answer.Protocol.degraded with
  | None -> Protocol.simulation_problem query
  | Some _ ->
      Ckpt_model.Optimizer.single_level_problem query.Protocol.problem

let simulate ~problem ~plan ~replications ~seed =
  let config = Ckpt_sim.Run_config.of_plan ~problem ~plan () in
  let wall_clocks = Array.make replications 0. in
  let completed = ref 0 in
  for rep = 0 to replications - 1 do
    let outcome = Ckpt_sim.Engine.run ~seed:(seed + rep) config in
    wall_clocks.(rep) <- outcome.Ckpt_sim.Outcome.wall_clock;
    if outcome.Ckpt_sim.Outcome.completed then incr completed
  done;
  let simulated = Stats.summarize wall_clocks in
  { Protocol.predicted_wall_clock = plan.Ckpt_model.Optimizer.wall_clock;
    simulated;
    relative_error =
      Stats.relative_error ~expected:plan.Ckpt_model.Optimizer.wall_clock
        simulated.Stats.mean;
    completed_runs = !completed }

(* ---------------- stateful adaptive ops ---------------- *)

let infer_levels events =
  let explicit =
    List.find_map (function Telemetry.Run_start { levels; _ } -> Some levels | _ -> None) events
  in
  match explicit with
  | Some levels when levels > 0 -> Some levels
  | Some _ -> None
  | None ->
      let max_level =
        List.fold_left
          (fun acc -> function
            | Telemetry.Ckpt { level; _ }
            | Telemetry.Restart { level; _ }
            | Telemetry.Failure { level; _ } ->
                max acc level
            | _ -> acc)
          0 events
      in
      if max_level > 0 then Some max_level else None

(* Chaos telemetry site: skew event timestamps before they reach the
   estimators — which must tolerate the resulting out-of-order and
   shifted times (exposure clamps, no NaNs). *)
let skew_events t events =
  match t.chaos with
  | None -> events
  | Some chaos ->
      List.map
        (fun event ->
          let index = t.event_seq in
          t.event_seq <- index + 1;
          match Chaos.skew chaos ~index with
          | 0. -> event
          | by -> Telemetry.shift event ~by)
        events

let handle_observe t events =
  let events = skew_events t events in
  let session =
    match t.session with
    | Some s -> Ok s
    | None -> (
        match infer_levels events with
        | Some levels ->
            let s =
              { rates = Rate_estimator.create ~levels ();
                costs = Cost_estimator.create ~levels () }
            in
            t.session <- Some s;
            Ok s
        | None ->
            Error
              (Protocol.error_v "invalid-request"
                 "cannot infer the level count: include a start event or a leveled event"))
  in
  match session with
  | Error e -> Error e
  | Ok s -> (
      match
        (Rate_estimator.observe_all s.rates events, Cost_estimator.observe_all s.costs events)
      with
      | rates, costs ->
          s.rates <- rates;
          s.costs <- costs;
          Ok
            ( List.length events,
              Rate_estimator.total_count rates,
              Rate_estimator.exposure rates )
      | exception Invalid_argument m -> Error (Protocol.error_v "invalid-request" m))

let no_telemetry =
  Protocol.error_v "no-telemetry"
    "no exposure observed yet: send an \"observe\" request first"

let with_session t f =
  match t.session with
  | Some s when Rate_estimator.exposure s.rates > 0. -> f s
  | _ -> Error no_telemetry

let handle_estimate t ~baseline_scale ~coverage =
  with_session t (fun s ->
      let levels = Rate_estimator.levels s.rates in
      let rate level =
        let per_day = Rate_estimator.rate_per_day s.rates ~level ~baseline_scale in
        let lo, hi = Rate_estimator.confidence_per_day ~coverage s.rates ~level ~baseline_scale in
        Json.Obj
          [ ("level", Json.Number (float_of_int level));
            ("per_day", Json.Number per_day);
            ("ci_low", Json.Number lo);
            ("ci_high", Json.Number hi);
            ("failures", Json.Number (float_of_int (Rate_estimator.count s.rates ~level))) ]
      in
      let cost level =
        Json.Obj
          [ ("level", Json.Number (float_of_int level));
            ("ckpt_samples", Json.Number (float_of_int (Cost_estimator.ckpt_count s.costs ~level)));
            ("ckpt_mean", Json.Number (Cost_estimator.ckpt_mean s.costs ~level));
            ("restart_samples",
             Json.Number (float_of_int (Cost_estimator.restart_count s.costs ~level)));
            ("restart_mean", Json.Number (Cost_estimator.restart_mean s.costs ~level)) ]
      in
      let ix = List.init levels (fun i -> i + 1) in
      Ok
        (Json.Obj
           [ ("baseline_scale", Json.Number baseline_scale);
             ("coverage", Json.Number coverage);
             ("exposure_core_seconds", Json.Number (Rate_estimator.exposure s.rates));
             ("failures", Json.Number (float_of_int (Rate_estimator.total_count s.rates)));
             ("rates", Json.List (List.map rate ix));
             ("costs", Json.List (List.map cost ix)) ]))

let handle_replan t ~query ~prior_strength =
  with_session t (fun s ->
      Metrics.add_queries t.metrics 1;
      Planner.replan t.planner ~rates:s.rates ~costs:s.costs ~prior_strength query)

(* The calibrate op: raw SCR log lines -> total parse -> phase
   accounting -> session estimators -> replan, all inline on the
   coordinator (stateful, like observe).  The session is created from
   the query problem's hierarchy when absent; a level-count mismatch
   with an existing session is a request error, not a silent resize. *)
let handle_calibrate t ~query ~log ~prior_strength ~compare =
  let problem = query.Protocol.problem in
  let levels = Array.length problem.Ckpt_model.Optimizer.levels in
  let session =
    match t.session with
    | Some s when Rate_estimator.levels s.rates = levels -> Ok s
    | Some s ->
        Error
          (Protocol.error_v "invalid-request"
             (Printf.sprintf
                "calibrate problem has %d levels but the session tracks %d"
                levels (Rate_estimator.levels s.rates)))
    | None ->
        let s =
          { rates = Rate_estimator.create ~levels ();
            costs = Cost_estimator.create ~levels () }
        in
        t.session <- Some s;
        Ok s
  in
  match session with
  | Error e -> Error e
  | Ok s -> (
      let parsed = Ckpt_calibrate.Scr_log.parse log in
      let default_scale =
        problem.Ckpt_model.Optimizer.spec
          .Ckpt_failures.Failure_spec.baseline_scale
      in
      let accounted =
        Ckpt_calibrate.Account.run
          (Ckpt_calibrate.Account.config ~default_scale ~levels ())
          parsed.Ckpt_calibrate.Scr_log.records
      in
      let events = skew_events t accounted.Ckpt_calibrate.Account.events in
      match
        ( Rate_estimator.observe_all s.rates events,
          Cost_estimator.observe_all s.costs events )
      with
      | exception Invalid_argument m ->
          Error (Protocol.error_v "invalid-request" m)
      | rates, costs -> (
          s.rates <- rates;
          s.costs <- costs;
          if Rate_estimator.exposure rates <= 0. then
            Error
              (Protocol.error_v "no-telemetry"
                 (Printf.sprintf
                    "log yields no exposure (%d records parsed, %d skipped): \
                     nothing advances the clock"
                    (List.length parsed.Ckpt_calibrate.Scr_log.records)
                    (List.length parsed.Ckpt_calibrate.Scr_log.skips)))
          else begin
            Metrics.add_queries t.metrics 1;
            match
              Planner.replan t.planner ~rates ~costs ~prior_strength query
            with
            | Error e -> Error e
            | Ok (answer, fitted) ->
                let report =
                  Ckpt_calibrate.Fit.report ~prior_strength ~log:parsed
                    ~totals:accounted.Ckpt_calibrate.Account.totals
                    ~template:problem ~rates ~costs ()
                in
                let provenance = Ckpt_calibrate.Fit.report_to_json report in
                (* A degraded answer's plan has single-level arity; the
                   pinned re-evaluation inside the comparison needs the
                   fitted problem's arity, so the side-by-side is only
                   built on the healthy path (the response still carries
                   the degraded markers). *)
                let comparison =
                  if compare && answer.Protocol.degraded = None then
                    Some
                      (Ckpt_calibrate.Compare.to_json
                         (Ckpt_calibrate.Compare.run
                            ~ml_plan:answer.Protocol.plan fitted))
                  else None
                in
                Ok (answer, fitted, provenance, comparison)
          end))

(* Chaos line site: corrupt or truncate raw request lines before the
   parser sees them — the parse/validate boundary must answer every
   mangled line with a structured error, never an exception. *)
let mangle_line t line =
  match t.chaos with
  | None -> None
  | Some chaos ->
      let index = t.line_seq in
      t.line_seq <- index + 1;
      Chaos.mangle_line chaos ~index line

(* Each line with the envelope it is answered from: the caller's
   pre-parsed one, unless chaos mangled the line — a mangled line is
   parsed afresh, exactly as if it had arrived that way. *)
let parse_lines t items =
  List.map
    (fun (line, envelope) ->
      match (mangle_line t line, envelope) with
      | Some mangled, _ -> (mangled, Wire.parse_request mangled)
      | None, Some envelope -> (line, envelope)
      | None, None -> (line, Wire.parse_request line))
    items

(* The shared pipeline behind {handle_batch} and {handle_batch_lines}:
   parse/validate, flat solver fan-out, simulation fan-out.  Rendering
   is the caller's choice — JSON trees or streamed strings. *)
let run_batch t items =
  if not t.live then invalid_arg "Service.handle_batch: service is shut down";
  let items = parse_lines t items in
  (* Lay every line's queries out flat. *)
  let offset = ref 0 in
  let jobs =
    List.map
      (fun (line, envelope) ->
        Metrics.incr_requests t.metrics;
        let span =
          match envelope.Protocol.request with
          | Ok request -> Array.length (queries_of_request request)
          | Error _ -> 0
        in
        let job = { envelope; line; offset = !offset; span } in
        offset := !offset + span;
        job)
      items
  in
  let queries = Array.make !offset None in
  List.iter
    (fun job ->
      match job.envelope.Protocol.request with
      | Error _ -> ()
      | Ok request ->
          Array.iteri
            (fun i q -> queries.(job.offset + i) <- Some q)
            (queries_of_request request))
    jobs;
  let queries = Array.map Option.get queries in
  let outcomes = Planner.solve_batch ?pool:t.pool t.planner queries in
  (* Second fan-out: the simulation legs of simulate-validate requests. *)
  let sim_inputs =
    List.filter_map
      (fun job ->
        match job.envelope.Protocol.request with
        | Ok (Protocol.Simulate_validate { query; replications; seed }) -> (
            match outcomes.(job.offset) with
            | Ok answer ->
                let problem = simulation_problem ~answer query in
                Some (job.offset, problem, answer.Protocol.plan, replications, seed)
            | Error _ -> None)
        | _ -> None)
      jobs
  in
  let sim_results =
    let run (slot, problem, plan, replications, seed) =
      let r =
        try Ok (simulate ~problem ~plan ~replications ~seed)
        with e ->
          Error
            (Protocol.error_v "simulate-failure"
               (match e with
               | Invalid_argument m | Failure m -> m
               | e -> Printexc.to_string e))
      in
      (slot, r)
    in
    let inputs = Array.of_list sim_inputs in
    match t.pool with
    | Some pool when Array.length inputs > 1 -> Pool.map pool ~f:run inputs
    | _ -> Array.map run inputs
  in
  let sim_by_slot = Hashtbl.create 8 in
  Array.iter (fun (slot, r) -> Hashtbl.replace sim_by_slot slot r) sim_results;
  (jobs, outcomes, sim_by_slot)

(* Stateful ops go through the durability gate first: the line must be
   on disk (per the WAL's policy) before the session mutates, or the op
   is refused outright and the state left untouched. *)
let persist_gate t job k =
  match t.persist with
  | None -> k ()
  | Some hook -> (
      match hook job.line with
      | Ok () -> k ()
      | Error e ->
          Metrics.incr_errors t.metrics;
          Protocol.error_response ?id:job.envelope.Protocol.id e)

let internal_response ?id e =
  Protocol.error_response ?id (Protocol.error_v "internal" (Printexc.to_string e))

(* One line's answer, or [internal] if its handler raises — a stats
   extra, a persist hook, an op's own bug — so that the other lines of
   the batch are still answered.  An injected crash stands for the
   process dying and unwinds. *)
let guarded t job answer render =
  try answer job with
  | Chaos.Injected_crash _ as e -> raise e
  | e ->
      Metrics.incr_errors t.metrics;
      render (internal_response ?id:job.envelope.Protocol.id e)

(* Reassemble one response per line, in order. *)
let respond t ~outcomes ~sim_by_slot job =
  let id = job.envelope.Protocol.id in
  match job.envelope.Protocol.request with
  | Error e ->
      Metrics.incr_errors t.metrics;
      Protocol.error_response ?id e
  | Ok request -> (
      match request with
      | Protocol.Stats -> Protocol.stats_response ?id (stats_json t)
      | Protocol.Observe { events } ->
          persist_gate t job @@ fun () -> (
          match handle_observe t events with
          | Ok (events, failures, exposure) ->
              Protocol.observe_response ?id ~events ~failures ~exposure ()
          | Error e ->
              Metrics.incr_errors t.metrics;
              Protocol.error_response ?id e)
      | Protocol.Estimate { baseline_scale; coverage } -> (
          match handle_estimate t ~baseline_scale ~coverage with
          | Ok payload -> Protocol.estimate_response ?id payload
          | Error e ->
              Metrics.incr_errors t.metrics;
              Protocol.error_response ?id e)
      | Protocol.Replan { query; prior_strength } ->
          persist_gate t job @@ fun () -> (
          match handle_replan t ~query ~prior_strength with
          | Ok (answer, fitted) ->
              Protocol.replan_response ?id
                ?degraded:answer.Protocol.degraded
                ~plan:answer.Protocol.plan ~fitted ()
          | Error e ->
              Metrics.incr_errors t.metrics;
              Protocol.error_response ?id e)
      | Protocol.Calibrate { query; log; prior_strength; compare } ->
          persist_gate t job @@ fun () -> (
          match handle_calibrate t ~query ~log ~prior_strength ~compare with
          | Ok (answer, fitted, provenance, comparison) ->
              Protocol.calibrate_response ?id
                ?degraded:answer.Protocol.degraded ?comparison
                ~plan:answer.Protocol.plan ~fitted ~provenance ()
          | Error e ->
              Metrics.incr_errors t.metrics;
              Protocol.error_response ?id e)
      | Protocol.Plan _ -> (
          match outcomes.(job.offset) with
          | Ok answer -> Protocol.plan_response ?id answer
          | Error e ->
              Metrics.incr_errors t.metrics;
              Protocol.error_response ?id e)
      | Protocol.Batch_plan { queries } ->
          let points =
            Array.init (Array.length queries) (fun i ->
                outcomes.(job.offset + i))
          in
          Protocol.batch_plan_response ?id points
      | Protocol.Sweep { param; values; _ } ->
          let points =
            Array.mapi (fun i v -> (v, outcomes.(job.offset + i))) values
          in
          Protocol.sweep_response ?id ~param points
      | Protocol.Simulate_validate _ -> (
          match outcomes.(job.offset) with
          | Error e ->
              Metrics.incr_errors t.metrics;
              Protocol.error_response ?id e
          | Ok answer -> (
              match Hashtbl.find_opt sim_by_slot job.offset with
              | Some (Ok v) ->
                  Protocol.validation_response ?id
                    ?degraded:answer.Protocol.degraded
                    ~cached:answer.Protocol.cached ~plan:answer.Protocol.plan v
              | Some (Error e) ->
                  Metrics.incr_errors t.metrics;
                  Protocol.error_response ?id e
              | None -> assert false)))

let unparsed lines = List.map (fun line -> (line, None)) lines

let handle_batch t lines =
  let t0 = Metrics.now_ms () in
  let jobs, outcomes, sim_by_slot = run_batch t (unparsed lines) in
  let responses =
    List.map (fun job -> guarded t job (respond t ~outcomes ~sim_by_slot) Fun.id) jobs
  in
  Metrics.record_batch_ms t.metrics (Metrics.now_ms () -. t0);
  responses

(* String-rendering variant: the hot solver-bound responses are streamed
   through {!Wire} into one reusable buffer — no [Json.t] tree is ever
   built for them — and everything else goes through {!respond} +
   [Json.to_string].  Output strings are byte-identical to
   [List.map Json.to_string (handle_batch t lines)]. *)
let render_lines t items =
  let t0 = Metrics.now_ms () in
  let jobs, outcomes, sim_by_slot = run_batch t items in
  let buf = t.out in
  let finish () =
    let s = Buffer.contents buf in
    (* Don't let one huge sweep response pin its capacity forever. *)
    if Buffer.length buf > 1 lsl 20 then Buffer.reset buf else Buffer.clear buf;
    s
  in
  let render job =
    (* A handler that raised mid-write left its bytes behind. *)
    Buffer.clear buf;
    let id = job.envelope.Protocol.id in
    match job.envelope.Protocol.request with
    | Ok (Protocol.Plan _) when Result.is_ok outcomes.(job.offset) -> (
        match outcomes.(job.offset) with
        | Ok answer ->
            Wire.write_plan_response buf ?id answer;
            finish ()
        | Error _ -> assert false)
    | Ok (Protocol.Batch_plan { queries }) ->
        let points =
          Array.init (Array.length queries) (fun i -> outcomes.(job.offset + i))
        in
        Wire.write_batch_plan_response buf ?id points;
        finish ()
    | Ok (Protocol.Sweep { param; values; _ }) ->
        let points = Array.mapi (fun i v -> (v, outcomes.(job.offset + i))) values in
        Wire.write_sweep_response buf ?id ~param points;
        finish ()
    | _ -> Json.to_string (respond t ~outcomes ~sim_by_slot job)
  in
  let responses = List.map (fun job -> guarded t job render Json.to_string) jobs in
  Metrics.record_batch_ms t.metrics (Metrics.now_ms () -. t0);
  responses

let handle_batch_lines t lines = render_lines t (unparsed lines)

let handle_line t line =
  match handle_batch t [ line ] with [ r ] -> r | _ -> assert false

let handle_parsed_line t envelope line =
  match render_lines t [ (line, Some envelope) ] with [ r ] -> r | _ -> assert false

let handle_line_string t line = handle_parsed_line t (Wire.parse_request line) line

let shutdown t =
  if t.live then begin
    t.live <- false;
    Option.iter Pool.shutdown t.pool
  end
