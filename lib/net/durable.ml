module Json = Ckpt_json.Json
module Service = Ckpt_service.Service
module Protocol = Ckpt_service.Protocol
module Chaos = Ckpt_chaos.Chaos
module Optimizer = Ckpt_model.Optimizer
module Level = Ckpt_model.Level
module Overhead = Ckpt_model.Overhead
module Speedup = Ckpt_model.Speedup
module Failure_spec = Ckpt_failures.Failure_spec

type config = {
  snapshot_dir : string option;
  snapshot_keep : int;
  wal : Wal.config option;
  auto : Json.t option;
}

let config ?snapshot_dir ?(snapshot_keep = 4) ?wal ?auto () =
  { snapshot_dir; snapshot_keep; wal; auto }

type t = {
  cfg : config;
  log : string -> unit;
  inject : Wal.fault_hook option;
  wal : Wal.t option;
  mutable applied : int;  (* last WAL seq applied to the service *)
  seq_base : int;
  restored_plans : int;
  replayed : int;
  replay_dropped : int;
  tmp_removed : int;
  mutable snapshots_written : int;
  mutable snapshot_failures : int;
  mutable last_snapshot_seq : int;  (* -1 = none this life *)
  mutable last_snapshot_at : float;  (* Unix time of the last cut *)
  mutable last_error : string option;
}

let persist t line =
  match t.wal with
  | None -> Ok ()
  | Some w -> (
      match Wal.append w line with
      | Ok seq ->
          t.applied <- seq;
          Ok ()
      | Error m ->
          t.last_error <- Some m;
          Error
            (Protocol.error_v "durability"
               ("write-ahead log append failed; op not applied: " ^ m)))

(* ---------------- health ---------------- *)

type persistence = {
  wal_enabled : bool;
  snapshots_enabled : bool;
  last_snapshot_seq : int;
  last_snapshot_age_s : float;
  snapshots_written : int;
  snapshot_failures : int;
  wal_segments : int;
  wal_bytes : int;
  wal_appended : int;
  wal_fsyncs : int;
  wal_errors : int;
  wal_synced_seq : int;
  replayed : int;
  replay_dropped : int;
  tmp_removed : int;
  restored_plans : int;
  last_error : string option;
}

let persistence t =
  let wal_or f d = match t.wal with None -> d | Some w -> f w in
  let last_error =
    (* The freshest of the WAL's and the snapshot path's last errors:
       WAL errors are recorded inside Wal, snapshot errors here. *)
    match wal_or Wal.last_error None with
    | Some m -> Some m
    | None -> t.last_error
  in
  { wal_enabled = t.wal <> None;
    snapshots_enabled = t.cfg.snapshot_dir <> None;
    last_snapshot_seq = t.last_snapshot_seq;
    last_snapshot_age_s =
      (if t.last_snapshot_seq < 0 then -1.
       else Unix.gettimeofday () -. t.last_snapshot_at);
    snapshots_written = t.snapshots_written;
    snapshot_failures = t.snapshot_failures;
    wal_segments = wal_or Wal.segments 0;
    wal_bytes = wal_or Wal.bytes 0;
    wal_appended = wal_or Wal.appended 0;
    wal_fsyncs = wal_or Wal.fsyncs 0;
    wal_errors = wal_or Wal.errors 0;
    wal_synced_seq = wal_or Wal.synced_seq 0;
    replayed = t.replayed;
    replay_dropped = t.replay_dropped;
    tmp_removed = t.tmp_removed;
    restored_plans = t.restored_plans;
    last_error }

let health_json t =
  let p = persistence t in
  let n v = Json.Number (float_of_int v) in
  Json.Obj
    ([ ("wal", Json.Bool p.wal_enabled);
       ("snapshots", Json.Bool p.snapshots_enabled);
       ("last_snapshot_seq", n p.last_snapshot_seq);
       ("last_snapshot_age_s", Json.Number p.last_snapshot_age_s);
       ("snapshots_written", n p.snapshots_written);
       ("snapshot_failures", n p.snapshot_failures);
       ("wal_segments", n p.wal_segments);
       ("wal_bytes", n p.wal_bytes);
       ("wal_appended", n p.wal_appended);
       ("wal_fsyncs", n p.wal_fsyncs);
       ("wal_errors", n p.wal_errors);
       ("wal_synced_seq", n p.wal_synced_seq);
       ("replayed", n p.replayed);
       ("replay_dropped", n p.replay_dropped);
       ("tmp_removed", n p.tmp_removed);
       ("restored_plans", n p.restored_plans);
       ( "last_error",
         match p.last_error with None -> Json.Null | Some m -> Json.String m ) ]
    @ match t.cfg.auto with None -> [] | Some a -> [ ("auto", a) ])

(* ---------------- recovery + create ---------------- *)

let create ?chaos ?inject ?(log = fun _ -> ()) cfg service =
  let inject =
    match (inject, chaos) with
    | (Some _ as h), _ -> h
    | None, Some chaos ->
        let step = ref (-1) in
        Some
          (fun ~op:_ ->
            incr step;
            Chaos.durability_fault chaos ~index:!step)
    | None, None -> None
  in
  let tmp_removed =
    match cfg.snapshot_dir with
    | None -> 0
    | Some dir -> Snapshot.clean_tmp ~log ~dir ()
  in
  let restored_plans, seq_base, watermark =
    match cfg.snapshot_dir with
    | None -> (0, 0, 0)
    | Some dir -> (
        match Snapshot.load_latest ~log ~dir () with
        | None -> (0, 0, 0)
        | Some state ->
            ( Snapshot.install state service,
              state.Snapshot.seq,
              state.Snapshot.wal_seq ))
  in
  let wal_result =
    match cfg.wal with
    | None -> Ok (None, 0, 0)
    | Some wcfg ->
        let scan = Wal.load ~log ~dir:wcfg.Wal.dir () in
        let suffix =
          List.filter (fun (seq, _) -> seq > watermark) scan.Wal.records
        in
        (* Replay in order through the service's normal line handler;
           the persist hook is not installed yet, so nothing re-logs.
           Responses are discarded — their effects on the session are
           the point. *)
        let last_replayed =
          List.fold_left
            (fun _ (seq, line) ->
              ignore (Service.handle_line_string service line);
              seq)
            watermark suffix
        in
        let replayed = List.length suffix in
        if replayed > 0 || scan.Wal.dropped_records > 0
           || scan.Wal.skipped_segments > 0 then
          log
            (Printf.sprintf
               "ckpt_wal: replayed %d records past watermark %d (%d bad records truncated, %d segments skipped)"
               replayed watermark scan.Wal.dropped_records
               scan.Wal.skipped_segments);
        let next_seq = max last_replayed scan.Wal.last_seq + 1 in
        Result.map
          (fun w -> (Some w, replayed, scan.Wal.dropped_records + scan.Wal.skipped_segments))
          (Wal.open_ ?inject ~log wcfg ~next_seq)
  in
  Result.map
    (fun (wal, replayed, replay_dropped) ->
      let t =
        { cfg; log; inject; wal;
          applied = (match wal with None -> 0 | Some w -> Wal.next_seq w - 1);
          seq_base; restored_plans; replayed; replay_dropped; tmp_removed;
          snapshots_written = 0; snapshot_failures = 0;
          last_snapshot_seq = -1; last_snapshot_at = 0.; last_error = None }
      in
      if t.wal <> None then
        Service.set_persist_hook service (Some (fun line -> persist t line));
      Service.set_stats_extra service
        (Some (fun () -> [ ("durability", health_json t) ]));
      t)
    wal_result

(* ---------------- snapshots + compaction ---------------- *)

let snapshot_inject t =
  Option.map
    (fun hook stage ->
      match hook ~op:stage with
      | Some Chaos.Crash | Some Chaos.Torn -> raise (Wal.Injected_crash stage)
      | Some Chaos.Fsync_fail -> raise (Unix.Unix_error (Unix.EIO, "fsync", stage))
      | Some _ | None -> ())
    t.inject

let cut t ~service ~seq =
  match t.cfg.snapshot_dir with
  | None -> Error "no snapshot directory configured"
  | Some dir -> (
      let flushed = match t.wal with None -> Ok () | Some w -> Wal.flush w in
      match flushed with
      | Error m ->
          t.snapshot_failures <- t.snapshot_failures + 1;
          t.last_error <- Some m;
          Error ("wal flush before snapshot failed: " ^ m)
      | Ok () -> (
          let state = Snapshot.of_service ~wal_seq:t.applied ~seq service in
          match
            Snapshot.save ?inject:(snapshot_inject t) ~keep:t.cfg.snapshot_keep
              ~dir state
          with
          | Ok path ->
              t.snapshots_written <- t.snapshots_written + 1;
              t.last_snapshot_seq <- seq;
              t.last_snapshot_at <- Unix.gettimeofday ();
              (* A durable snapshot covers every record up to its
                 watermark: those segments are dead weight now. *)
              Option.iter
                (fun w -> ignore (Wal.retire w ~upto:state.Snapshot.wal_seq))
                t.wal;
              Ok path
          | Error m ->
              t.snapshot_failures <- t.snapshot_failures + 1;
              t.last_error <- Some m;
              Error m))

let tick t = Option.iter Wal.flush_if_due t.wal
let close t = Option.iter Wal.close t.wal
let abort t = Option.iter Wal.abort t.wal

let seq_base (t : t) = t.seq_base
let restored_plans (t : t) = t.restored_plans

(* ---------------- model-driven tuning ---------------- *)

type auto_choice = {
  fsync_batch : int;
  snapshot_interval : int;
  fsync_cost_s : float;
  snapshot_cost_s : float;
  crash_rate_per_day : float;
  wal_loss_rate_per_day : float;
  op_rate : float;
  predicted_overhead : float;
}

let time_s f =
  let t0 = Unix.gettimeofday () in
  f ();
  Unix.gettimeofday () -. t0

let measure_fsync_cost ~dir =
  try
    if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
    let probe = Filename.concat dir ".fsync-probe" in
    let fd = Unix.openfile probe [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
    let payload = String.make 256 'x' in
    let samples =
      Fun.protect ~finally:(fun () ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          try Sys.remove probe with Sys_error _ -> ())
        (fun () ->
          List.init 7 (fun _ ->
              time_s (fun () ->
                  ignore (Unix.write_substring fd payload 0 (String.length payload));
                  Unix.fsync fd)))
    in
    let sorted = List.sort compare samples in
    Ok (List.nth sorted (List.length sorted / 2))
  with
  | Unix.Unix_error (err, fn, _) ->
      Error (Printf.sprintf "fsync probe failed: %s: %s" fn (Unix.error_message err))
  | Sys_error m -> Error ("fsync probe failed: " ^ m)

let measure_snapshot_cost ~dir service =
  let state = Snapshot.of_service ~wal_seq:0 ~seq:0 service in
  let t0 = Unix.gettimeofday () in
  match Snapshot.save ~dir state with
  | Ok _ -> Ok (Unix.gettimeofday () -. t0)
  | Error m -> Error m

let auto_tune ?wal_loss_rate_per_day ?(op_rate = 1000.) ~fsync_cost_s
    ~snapshot_cost_s ~crash_rate_per_day () =
  if not (Float.is_finite op_rate) || op_rate <= 0. then
    invalid_arg "Durable.auto_tune: op_rate must be positive";
  if not (Float.is_finite crash_rate_per_day) || crash_rate_per_day <= 0. then
    invalid_arg "Durable.auto_tune: crash_rate_per_day must be positive";
  let wal_loss_rate_per_day =
    match wal_loss_rate_per_day with
    | Some r ->
        if not (Float.is_finite r) || r <= 0. then
          invalid_arg "Durable.auto_tune: wal_loss_rate_per_day must be positive";
        r
    | None -> crash_rate_per_day /. 20.
  in
  let te = Failure_spec.seconds_per_day in
  let problem =
    { Optimizer.te;
      speedup = Speedup.linear ~kappa:1.;
      levels =
        [| Level.v ~name:"wal-fsync" (Overhead.constant (Float.max 1e-6 fsync_cost_s));
           Level.v ~name:"snapshot" (Overhead.constant (Float.max 1e-5 snapshot_cost_s))
        |];
      alloc = 1.0;  (* process restart, seconds *)
      spec =
        Failure_spec.v ~baseline_scale:1.
          [| crash_rate_per_day; wal_loss_rate_per_day |] }
  in
  let plan = Optimizer.solve ~fixed_n:1. problem in
  let interval_requests level =
    let x = Float.max 1. plan.Optimizer.xs.(level) in
    te /. x *. op_rate
  in
  let clamp lo hi v = max lo (min hi v) in
  let fsync_batch =
    clamp 1 4096 (int_of_float (Float.round (interval_requests 0)))
  in
  let snapshot_interval =
    clamp fsync_batch 10_000_000 (int_of_float (Float.round (interval_requests 1)))
  in
  { fsync_batch; snapshot_interval; fsync_cost_s; snapshot_cost_s;
    crash_rate_per_day; wal_loss_rate_per_day; op_rate;
    predicted_overhead = (plan.Optimizer.wall_clock /. te) -. 1. }

let auto_choice_json c =
  Json.Obj
    [ ("fsync_batch", Json.Number (float_of_int c.fsync_batch));
      ("snapshot_interval", Json.Number (float_of_int c.snapshot_interval));
      ("fsync_cost_s", Json.Number c.fsync_cost_s);
      ("snapshot_cost_s", Json.Number c.snapshot_cost_s);
      ("crash_rate_per_day", Json.Number c.crash_rate_per_day);
      ("wal_loss_rate_per_day", Json.Number c.wal_loss_rate_per_day);
      ("op_rate", Json.Number c.op_rate);
      ("predicted_overhead", Json.Number c.predicted_overhead) ]
