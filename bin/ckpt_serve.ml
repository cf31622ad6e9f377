(* Batch planning service over the Algorithm-1 optimizer.

   Two front doors over the same service and protocol:

   - stdin mode (default): read JSON-lines requests (plan / sweep /
     simulate-validate / observe / estimate / replan / stats), answer one
     JSON response per line in the same order, print a metrics report on
     shutdown;
   - server mode (--listen HOST:PORT): a TCP accept loop with bounded
     admission, per-request deadlines, graceful drain on SIGTERM /
     SIGINT / an in-band {"op":"shutdown"} request, and (with
     --snapshot-dir) periodic atomic snapshots plus warm restart; with
     --wal-dir, stateful ops are write-ahead logged before they are
     acked and restart replays the WAL suffix past the newest snapshot.
     --durability auto measures fsync/snapshot costs and solves the
     repo's own two-level model for the fsync batch and snapshot
     interval.

   Examples:
     ckpt_serve --input examples/fig5_sweep.jsonl --workers 4
     echo '{"op":"stats"}' | ckpt_serve
     ckpt_serve --listen 127.0.0.1:7401 --snapshot-dir /var/tmp/ckpt \
                --snapshot-interval 256 --max-inflight 64
     ckpt_serve --listen :7401 --snapshot-dir /var/tmp/ckpt \
                --wal-dir /var/tmp/ckpt-wal --durability auto --crash-rate 24
     ckpt_serve --self-check *)

open Cmdliner
module Service = Ckpt_service.Service
module Server = Ckpt_net.Server
module Json = Ckpt_json.Json

let read_lines ic =
  let rec loop acc =
    match In_channel.input_line ic with
    | Some line -> loop (line :: acc)
    | None -> List.rev acc
  in
  loop []

let non_blank line = String.trim line <> ""
let ( let* ) = Result.bind

(* --self-check: round-trip one plan request end-to-end through the
   protocol, planner and pool, and compare against a direct solve — then
   do it again over a loopback TCP connection through the ckpt_net
   server, including a garbage frame and an in-band shutdown drain.
   Exercised by `dune runtest` so both binary paths stay covered. *)

let self_check_problem () =
  let open Ckpt_model in
  { Optimizer.te = 1e4 *. 86_400.;
    speedup = Speedup.quadratic ~kappa:0.46 ~n_star:1e5;
    levels = Level.fti_fusion;
    alloc = 60.;
    spec = Ckpt_failures.Failure_spec.of_string ~baseline_scale:1e5 "16-12-8-4" }

let self_check_request problem =
  Json.to_string
    (Json.Obj
       [ ("id", Json.String "self-check"); ("op", Json.String "plan");
         ("problem", Ckpt_model.Codec.problem_to_json problem) ])

let check_plan_response ~expected response_text =
  let open Ckpt_model in
  let reparsed = Json.parse response_text in
  if not (Ckpt_service.Protocol.response_ok reparsed) then
    Error (Printf.sprintf "self-check response not ok: %s" response_text)
  else
    match Option.map Codec.plan_of_json (Json.member "plan" reparsed) with
    | Some (Ok plan) when plan = expected -> Ok ()
    | Some (Ok plan) ->
        Error
          (Printf.sprintf "self-check plan mismatch: served n=%.6f wall=%.6f, direct n=%.6f wall=%.6f"
             plan.Optimizer.n plan.Optimizer.wall_clock expected.Optimizer.n
             expected.Optimizer.wall_clock)
    | Some (Error m) -> Error ("self-check plan does not decode: " ^ m)
    | None -> Error "self-check response has no plan"

let self_check_inline () =
  let problem = self_check_problem () in
  let expected = Ckpt_model.Optimizer.ml_opt_scale problem in
  let service = Service.create ~workers:2 () in
  Fun.protect ~finally:(fun () -> Service.shutdown service) @@ fun () ->
  check_plan_response ~expected
    (Json.to_string (Service.handle_line service (self_check_request problem)))

let self_check_loopback () =
  let problem = self_check_problem () in
  let expected = Ckpt_model.Optimizer.ml_opt_scale problem in
  let service = Service.create ~workers:2 () in
  Fun.protect ~finally:(fun () -> Service.shutdown service) @@ fun () ->
  let server = Server.start service in
  Fun.protect ~finally:(fun () -> Server.stop server; Server.join server) @@ fun () ->
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, Server.port server));
  let reader = Ckpt_net.Frame.reader fd in
  let ask line =
    Ckpt_net.Frame.write_line fd line;
    match Ckpt_net.Frame.read_line reader with
    | Ckpt_net.Frame.Line response -> Ok response
    | _ -> Error "loopback connection closed before a response arrived"
  in
  let* response = ask (self_check_request problem) in
  let* () = check_plan_response ~expected response in
  let* garbage = ask "\x01 this is not a request" in
  let* () =
    if Ckpt_service.Protocol.response_ok (Json.parse garbage) then
      Error "garbage frame was answered ok"
    else Ok ()
  in
  let* drained = ask {|{"op":"shutdown"}|} in
  match Json.member "draining" (Json.parse drained) with
  | Some (Json.Bool true) -> Ok ()
  | _ -> Error ("shutdown request not acknowledged: " ^ drained)

let self_check () =
  let* () = self_check_inline () in
  self_check_loopback ()

(* --listen HOST:PORT.  A bare ":PORT" binds loopback; port 0 asks the
   kernel for an ephemeral port (printed on startup). *)
let parse_listen s =
  match String.rindex_opt s ':' with
  | None -> Error (Printf.sprintf "--listen expects HOST:PORT, got %S" s)
  | Some i -> (
      let host = String.sub s 0 i in
      let host = if host = "" then "127.0.0.1" else host in
      match int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)) with
      | Some port when port >= 0 && port <= 65_535 -> Ok (host, port)
      | _ -> Error (Printf.sprintf "--listen port must be 0..65535, got %S" s))

(* --durability auto: measure this machine's fsync and snapshot costs,
   feed them (plus the configured crash rate) into the repo's own
   two-level optimizer, and let the paper's model pick the WAL
   group-commit batch and the snapshot interval. *)
let solve_durability_auto ~wal_dir ~snapshot_dir ~crash_rate ~op_rate service =
  match (wal_dir, snapshot_dir) with
  | None, _ -> Error "--durability auto requires --wal-dir"
  | _, None -> Error "--durability auto requires --snapshot-dir"
  | Some wdir, Some sdir ->
      let* fsync_cost_s = Ckpt_net.Durable.measure_fsync_cost ~dir:wdir in
      let* snapshot_cost_s =
        Ckpt_net.Durable.measure_snapshot_cost ~dir:sdir service
      in
      (match
         Ckpt_net.Durable.auto_tune ~op_rate ~fsync_cost_s ~snapshot_cost_s
           ~crash_rate_per_day:crash_rate ()
       with
      | choice -> Ok choice
      | exception Invalid_argument m -> Error m)

let run_server ~host ~port ~workers ~cache_capacity ~precision ~snapshot_dir
    ~snapshot_interval ~max_inflight ~wal_dir ~fsync_batch ~fsync_interval_ms
    ~durability ~crash_rate ~op_rate =
  let service = Service.create ~workers ~cache_capacity ~precision () in
  Fun.protect ~finally:(fun () -> Service.shutdown service) @@ fun () ->
  let* fsync_batch, snapshot_interval, durability_auto =
    match durability with
    | `Fixed -> Ok (fsync_batch, snapshot_interval, None)
    | `Auto ->
        let* choice =
          solve_durability_auto ~wal_dir ~snapshot_dir ~crash_rate ~op_rate
            service
        in
        Printf.printf
          "ckpt-serve durability auto: fsync-batch=%d snapshot-interval=%d \
           (fsync=%.6fs snapshot=%.6fs crash-rate=%g/day predicted-overhead=%.4f)\n%!"
          choice.Ckpt_net.Durable.fsync_batch
          choice.Ckpt_net.Durable.snapshot_interval
          choice.Ckpt_net.Durable.fsync_cost_s
          choice.Ckpt_net.Durable.snapshot_cost_s
          choice.Ckpt_net.Durable.crash_rate_per_day
          choice.Ckpt_net.Durable.predicted_overhead;
        Ok
          ( choice.Ckpt_net.Durable.fsync_batch,
            choice.Ckpt_net.Durable.snapshot_interval,
            Some (Ckpt_net.Durable.auto_choice_json choice) )
  in
  let config =
    { Server.default_config with
      host; port; snapshot_dir; snapshot_interval; max_inflight;
      wal_dir; fsync_batch; fsync_interval_ms; durability_auto }
  in
  match Server.start ~config service with
  | exception Invalid_argument m -> Error m
  | exception Failure m -> Error m
  | exception Unix.Unix_error (err, fn, _) ->
      Error (Printf.sprintf "cannot listen on %s:%d: %s: %s" host port fn
               (Unix.error_message err))
  | server ->
      (* Graceful drain on SIGTERM / SIGINT: stop accepting, let every
         in-flight request finish, cut a final snapshot, then [join]
         below falls through and the metrics report prints.
         [Server.stop] is a single atomic store — no mutex — so it is
         safe even though OCaml runs the handler at a poll point in an
         arbitrary thread that may already hold server locks. *)
      let drain _ = Server.stop server in
      (try
         Sys.set_signal Sys.sigterm (Sys.Signal_handle drain);
         Sys.set_signal Sys.sigint (Sys.Signal_handle drain);
         Sys.set_signal Sys.sigpipe Sys.Signal_ignore
       with Invalid_argument _ | Sys_error _ -> ());
      Printf.printf "ckpt-serve listening on %s:%d (workers=%d max-inflight=%d%s%s)\n%!"
        host (Server.port server) workers max_inflight
        (match snapshot_dir with
        | None -> ""
        | Some dir ->
            Printf.sprintf " snapshot-dir=%s restored=%d" dir (Server.restored server))
        (match wal_dir with
        | None -> ""
        | Some dir ->
            Printf.sprintf " wal-dir=%s fsync-batch=%d replayed=%d" dir fsync_batch
              (Server.persistence server).Ckpt_net.Durable.replayed);
      Server.join server;
      Printf.printf
        "ckpt-serve drained: %d connections, %d requests answered, %d rejected\n%!"
        (Server.connections server) (Server.requests server)
        (Server.rejections server);
      Format.eprintf "%a@." Ckpt_service.Metrics.pp (Service.metrics service);
      Ok ()

let run input output workers cache_capacity precision append_stats self listen
    snapshot_dir snapshot_interval max_inflight wal_dir fsync_batch
    fsync_interval_ms durability crash_rate op_rate =
  if workers < 0 then Error (Printf.sprintf "--workers must be >= 0, got %d" workers)
  else if cache_capacity < 1 then
    Error (Printf.sprintf "--cache-capacity must be >= 1, got %d" cache_capacity)
  else if precision < 1 then
    Error (Printf.sprintf "--precision must be >= 1, got %d" precision)
  else if snapshot_interval < 0 then
    Error (Printf.sprintf "--snapshot-interval must be >= 0, got %d" snapshot_interval)
  else if max_inflight < 1 then
    Error (Printf.sprintf "--max-inflight must be >= 1, got %d" max_inflight)
  else if fsync_batch < 1 then
    Error (Printf.sprintf "--fsync-batch must be >= 1, got %d" fsync_batch)
  else if not (Float.is_finite fsync_interval_ms) || fsync_interval_ms < 0. then
    Error "--fsync-interval-ms must be >= 0"
  else if not (Float.is_finite crash_rate) || crash_rate <= 0. then
    Error "--crash-rate must be > 0 (per day)"
  else if not (Float.is_finite op_rate) || op_rate <= 0. then
    Error "--op-rate must be > 0 (requests/second)"
  else if self then (
    match self_check () with
    | Ok () ->
        print_endline "self-check ok";
        Ok ()
    | Error m -> Error m)
  else
    match listen with
    | Some spec ->
        let* host, port = parse_listen spec in
        run_server ~host ~port ~workers ~cache_capacity ~precision ~snapshot_dir
          ~snapshot_interval ~max_inflight ~wal_dir ~fsync_batch
          ~fsync_interval_ms ~durability ~crash_rate ~op_rate
    | None -> begin
    let lines =
      match input with
      | None -> read_lines stdin
      | Some path -> In_channel.with_open_text path read_lines
    in
    let lines = List.filter non_blank lines in
    let lines = if append_stats then lines @ [ {|{"op":"stats"}|} ] else lines in
    let service = Service.create ~workers ~cache_capacity ~precision () in
    Fun.protect ~finally:(fun () -> Service.shutdown service) @@ fun () ->
    let responses = Service.handle_batch_lines service lines in
    let emit oc = List.iter (fun r -> output_string oc r; output_char oc '\n') responses in
    (match output with
    | None -> emit stdout
    | Some path -> Out_channel.with_open_text path emit);
    Format.eprintf "%a@." Ckpt_service.Metrics.pp (Service.metrics service);
    Ok ()
  end

let listen =
  Arg.(value & opt (some string) None
       & info [ "listen" ] ~docv:"HOST:PORT"
           ~doc:"Serve over TCP instead of stdin; port 0 picks an ephemeral port.")

let snapshot_dir =
  Arg.(value & opt (some string) None
       & info [ "snapshot-dir" ] ~docv:"DIR"
           ~doc:"Durability: cut atomic snapshots here and warm-restart from the \
                 newest valid one (server mode).")

let snapshot_interval =
  Arg.(value & opt int Server.default_config.Server.snapshot_interval
       & info [ "snapshot-interval" ] ~docv:"N"
           ~doc:"Requests between snapshots; 0 snapshots only on drain.")

let max_inflight =
  Arg.(value & opt int Server.default_config.Server.max_inflight
       & info [ "max-inflight" ] ~docv:"N"
           ~doc:"Admission bound: further requests are rejected as overloaded.")

let wal_dir =
  Arg.(value & opt (some string) None
       & info [ "wal-dir" ] ~docv:"DIR"
           ~doc:"Durability: write-ahead log stateful ops here before acking them; \
                 restart replays the WAL suffix past the newest snapshot (server mode).")

let fsync_batch =
  Arg.(value & opt int Server.default_config.Server.fsync_batch
       & info [ "fsync-batch" ] ~docv:"N"
           ~doc:"WAL group commit: fsync every N records (1 = every acked op is \
                 durable; larger batches trade an N-1 record loss window for \
                 throughput).")

let fsync_interval_ms =
  Arg.(value & opt float Server.default_config.Server.fsync_interval_ms
       & info [ "fsync-interval-ms" ] ~docv:"MS"
           ~doc:"WAL group commit time bound: pending records are fsynced at \
                 latest this many ms after they were written.")

let durability =
  Arg.(value & opt (enum [ ("fixed", `Fixed); ("auto", `Auto) ]) `Fixed
       & info [ "durability" ] ~docv:"MODE"
           ~doc:"$(b,fixed) uses --fsync-batch/--snapshot-interval as given; \
                 $(b,auto) measures fsync and snapshot costs and solves the \
                 repo's own two-level checkpoint model for both intervals \
                 (requires --wal-dir and --snapshot-dir).")

let crash_rate =
  Arg.(value & opt float 24.
       & info [ "crash-rate" ] ~docv:"R"
           ~doc:"Assumed process crash rate per day for --durability auto.")

let op_rate =
  Arg.(value & opt float 1000.
       & info [ "op-rate" ] ~docv:"R"
           ~doc:"Assumed request rate per second for --durability auto (converts \
                 the model's time intervals into request counts).")

let input =
  Arg.(value & opt (some file) None
       & info [ "input"; "i" ] ~docv:"FILE" ~doc:"JSON-lines request file (default stdin).")

let output =
  Arg.(value & opt (some string) None
       & info [ "output"; "o" ] ~docv:"FILE" ~doc:"Response file (default stdout).")

let workers =
  (* One worker domain per available core: on a single-core machine extra
     domains only add stop-the-world GC synchronization. *)
  Arg.(value & opt int (Domain.recommended_domain_count ())
       & info [ "workers"; "j" ] ~doc:"Worker domains; 0 solves in the calling domain.")

let cache_capacity =
  Arg.(value & opt int 4096
       & info [ "cache-capacity" ]
           ~doc:"Plan cache entries, at least 1, split over up to 8 LRU shards.")

let precision =
  Arg.(value & opt int Ckpt_service.Fingerprint.default_precision
       & info [ "precision" ] ~doc:"Significant digits in cache fingerprints.")

let append_stats =
  Arg.(value & flag & info [ "stats" ] ~doc:"Append a stats response after the batch.")

let self =
  Arg.(value & flag
       & info [ "self-check" ]
           ~doc:"Round-trip one request end-to-end through the service and exit.")

let cmd =
  let doc = "Concurrent batch planning service over the SC'14 multilevel checkpoint optimizer" in
  let term =
    Term.(const run $ input $ output $ workers $ cache_capacity $ precision $ append_stats
          $ self $ listen $ snapshot_dir $ snapshot_interval $ max_inflight
          $ wal_dir $ fsync_batch $ fsync_interval_ms $ durability $ crash_rate
          $ op_rate)
  in
  Cmd.v (Cmd.info "ckpt-serve" ~doc) Term.(term_result' term)

let () = exit (Cmd.eval cmd)
