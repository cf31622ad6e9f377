(* One benchmark run of one workload against a real ckpt_serve.

     perfbench.exe --server PATH --workload hot-plan --seed 1 --seconds 10 --trace 0

   --trace 0: set the server up several times (the median of the
   server's set-up CPU time is setup_s), drive the last one for --seconds
   over two closed-loop connections (durable-telemetry then runs the
   fairness probe), check the replies, and print the end-to-end metrics.
   --trace 1: the same socket run, then the traced replay of the same
   seeded stream in this process, and print the per-layer metrics.

   The last line of stdout is the result object; a human summary goes to
   stderr.  A workload whose server stats show it stopped exercising its
   layer fails with exit code 1 and no result.  Temporary WAL and
   snapshot directories live under .perfbench_tmp/ and are removed; the
   traced run's spans are written to .perfbench_out/. *)

open Perfbench_lib
open Ckpt_model
module Json = Ckpt_json.Json
module Service = Ckpt_service.Service
module Codec = Ckpt_model.Codec

let fail = Client.fail

(* ---------------- files ---------------- *)

let tmp_root = ".perfbench_tmp"
let out_root = ".perfbench_out"
let dir_counter = ref 0

(* A fresh directory for one server or replay; removed by [with_dir]. *)
let with_dir f =
  incr dir_counter;
  let dir = Filename.concat tmp_root (Printf.sprintf "run-%d-%d" (Unix.getpid ()) !dir_counter) in
  Client.rm_rf dir;
  Client.mkdir_p dir;
  Fun.protect ~finally:(fun () -> Client.rm_rf dir) (fun () -> f dir)

(* ---------------- statistics ---------------- *)

let sorted a =
  let a = Array.copy a in
  Array.sort compare a;
  a

(* Nearest-rank percentile of a sorted array. *)
let percentile s q =
  let n = Array.length s in
  if n = 0 then nan else s.(max 0 (min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1)))

let median a = percentile (sorted a) 0.5

(* ---------------- the server under test ---------------- *)

(* Set-up is timed 15 times per run: 7 times before the timed phase
   (the 7th server is the one driven) and 8 times after the run's checks.
   A set-up takes about 10-40 ms of CPU, and the host's speed swings by
   a fifth from one second to the next, so a median over set-ups spread
   across the run is steadier than one over a single second of them. *)
let setups_before = 7
let setups_after = 8

(* The cache capacity and snapshot interval are passed explicitly, so the
   server, the traced replay and the self-checks agree on them. *)
let server_args workload dir =
  [ "--listen"; "127.0.0.1:0"; "--workers"; "1";
    "--cache-capacity"; string_of_int Replay.cache_capacity ]
  @
  match workload with
  | Gen.Durable_telemetry ->
      [ "--wal-dir"; Filename.concat dir "wal"; "--snapshot-dir"; Filename.concat dir "snap";
        "--snapshot-interval"; string_of_int Replay.snapshot_interval ]
  | Gen.Hot_plan | Gen.Cold_solve -> []

(* Spawn, connect both connections, answer the warm-up.  Returns the
   server, the two sockets, the wall seconds that took and the server's
   CPU seconds up to then. *)
let set_up ~exe ~workload ~seed dir =
  let t0 = Unix.gettimeofday () in
  let server =
    Client.start_server ~exe ~args:(server_args workload dir) ~log:(Filename.concat dir "server.log")
  in
  match
    let fds = Array.init Gen.connections (fun _ -> Client.connect server.Client.port) in
    List.iter
      (fun (r : Gen.request) ->
        let reply = Client.ask fds.(0) r.Gen.line in
        if not (Client.healthy r reply) then fail "warm-up request %d failed: %s" r.Gen.id reply)
      (Gen.warmup workload ~seed);
    fds
  with
  | fds ->
      let cpu_s = float_of_int (Client.cpu_ns server.Client.pid) /. 1e9 in
      (server, fds, Unix.gettimeofday () -. t0, cpu_s)
  | exception e ->
      ignore (Client.stop_server server);
      raise e

let close_all fds = Array.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) fds

let stop ~dir server =
  match Client.stop_server server with
  | `Exited (Unix.WEXITED 0) -> ()
  | `Exited _ | `Killed ->
      let log = try In_channel.with_open_text (Filename.concat dir "server.log") In_channel.input_all with Sys_error _ -> "" in
      fail "the server did not drain cleanly on SIGTERM; its log:\n%s" log

let stats fd =
  let reply = Client.ask fd {|{"id":-1000,"op":"stats"}|} in
  match Option.bind (Json.parse_result reply |> Result.to_option) (Json.member "stats") with
  | Some s -> s
  | None -> fail "stats request failed: %s" reply

let num path json =
  let rec walk j = function
    | [] -> Json.to_float j
    | k :: rest -> Option.bind (Json.member k j) (fun j -> walk j rest)
  in
  match walk json path with
  | Some v -> v
  | None -> fail "stats has no %s" (String.concat "." path)

let int_at path json = int_of_float (num path json)

(* ---------------- checks ---------------- *)

(* The repo's solver contract: same integer scale (an optimum within the
   scale tolerance of a rounding boundary may land on either side), E(T_w)
   within 1e-9 relative, same converged flag. *)
let plan_equivalent (a : Optimizer.plan) (b : Optimizer.plan) =
  (Float.round a.Optimizer.n = Float.round b.Optimizer.n
  || Float.abs (a.Optimizer.n -. b.Optimizer.n) <= 0.5)
  && Float.abs (a.Optimizer.wall_clock -. b.Optimizer.wall_clock)
     <= 1e-9 *. Float.max 1. (Float.abs b.Optimizer.wall_clock)
  && a.Optimizer.converged = b.Optimizer.converged

let served_plan (req : Gen.request) j reply =
  let plan_json =
    Option.bind (Result.to_option (Json.parse_result reply)) (fun json ->
        match req.Gen.kind with
        | Gen.Plan -> Json.member "plan" json
        | _ ->
            Option.bind (Json.list_field "results" json) (fun rs ->
                Option.bind (List.nth_opt rs j) (Json.member "plan")))
  in
  match Option.map Codec.plan_of_json plan_json with
  | Some (Ok plan) -> Some plan
  | _ -> None

(* A seeded reservoir of served plan rows. *)
type reservoir = {
  rng : Random.State.t;
  slots : (Gen.request * int * string) option array;
  mutable seen : int;
}

let sample_rows = 24

let offer res req reply =
  Array.iteri
    (fun j _ ->
      let k = res.seen in
      res.seen <- k + 1;
      if k < sample_rows then res.slots.(k) <- Some (req, j, reply)
      else
        let r = Random.State.int res.rng (k + 1) in
        if r < sample_rows then res.slots.(r) <- Some (req, j, reply))
    req.Gen.rows

(* ---------------- the socket run ---------------- *)

type socket_run = {
  sent : int;
  failed : int;
  cpu_us_per_req : float;  (* server CPU per answered request *)
  setup_s : float;  (* server CPU seconds of a set-up, median *)
  rss_mb : float;
  (* Wall-clock figures: host steal sets them, so they are reported,
     not gated. *)
  throughput_rps : float;
  p50_ms : float;
  p99_ms : float;
  samples : int;
  steal : float;
  retained_samples : int;
}

let retained stats =
  List.fold_left
    (fun acc k ->
      match Json.member k stats with
      | Some (Json.Obj _ as s) -> acc + int_at [ "count" ] s
      | _ -> acc)
    0 [ "solve_ms"; "replan_ms"; "batch_ms" ]

let self_checks workload ~before ~after ~acked_mutating ~f_evals =
  let delta path = int_at path after - int_at path before in
  let check ok fmt = Printf.ksprintf (fun m -> if not ok then fail "self-check: %s" m) fmt in
  (match Json.member "resilience" after with
  | None -> ()
  | Some r ->
      check (int_at [ "degraded" ] r = 0) "%d degraded answers" (int_at [ "degraded" ] r);
      check (int_at [ "retries" ] r = 0) "%d retries" (int_at [ "retries" ] r));
  match workload with
  | Gen.Hot_plan ->
      check (delta [ "solves" ] = 0) "hot-plan solved %d rows" (delta [ "solves" ]);
      check (delta [ "cache"; "misses" ] = 0 && delta [ "cache"; "hits" ] > 0)
        "hot-plan hit ratio is not 1 (%d hits, %d misses)" (delta [ "cache"; "hits" ])
        (delta [ "cache"; "misses" ])
  | Gen.Cold_solve ->
      check (delta [ "cache"; "hits" ] = 0) "cold-solve hit the cache %d times" (delta [ "cache"; "hits" ]);
      check (f_evals > 0) "cold-solve rows ran no Eq. 24 evaluations";
      (* Every healthy miss is inserted; more inserts than the cache
         holds means it evicted. *)
      check
        (delta [ "cache"; "misses" ] > Replay.cache_capacity)
        "cold-solve inserted %d plans, not enough to evict from a %d-entry cache"
        (delta [ "cache"; "misses" ]) Replay.cache_capacity
  | Gen.Durable_telemetry ->
      let appended = int_at [ "durability"; "wal_appended" ] after in
      check (appended = acked_mutating) "WAL appended %d records for %d acked mutating ops"
        appended acked_mutating;
      check (int_at [ "durability"; "wal_errors" ] after = 0) "WAL errors";
      check (int_at [ "durability"; "snapshots_written" ] after >= 1) "no snapshot was cut"

(* The server's peak resident set is read once this many replies have
   landed, not at the end of the run: the server keeps every latency
   sample, so its memory grows with the requests served, and a fixed
   count keeps the host's speed out of the figure.  Each count is
   reached in a few seconds. *)
let rss_at_replies = function
  | Gen.Hot_plan -> 20_000
  | Gen.Cold_solve -> 2_500
  | Gen.Durable_telemetry -> 4_000

(* The fairness probe: after the timed phase of durable-telemetry,
   connection B sends single-plan reads for this long, beside A's
   telemetry.  Its replies are checked; its figures are printed, not
   gated. *)
let probe_seconds = 3.

let per_connection label (loop : Client.loop_result) =
  let lat conn =
    Array.to_list loop.Client.samples
    |> List.filter_map (fun (s : Client.sample) ->
           if s.Client.conn = conn then Some (float_of_int s.Client.latency_ns /. 1e6) else None)
    |> Array.of_list |> sorted
  in
  let total = Array.length loop.Client.samples in
  List.iter
    (fun conn ->
      let mine = lat conn in
      Printf.eprintf "perfbench: %s, connection %c: %d replies (%.0f%%), p50 %.3f ms, p99 %.3f ms\n%!"
        label (Char.chr (Char.code 'A' + conn)) (Array.length mine)
        (100. *. float_of_int (Array.length mine) /. float_of_int (max 1 total))
        (percentile mine 0.5) (percentile mine 0.99))
    (List.init Gen.connections Fun.id)

(* Set up and stop [n] servers; the wall and CPU seconds of each set-up. *)
let throwaway_setups ~exe ~workload ~seed n =
  List.init n (fun _ ->
      with_dir (fun dir ->
          let server, fds, wall_s, cpu_s = set_up ~exe ~workload ~seed dir in
          close_all fds;
          stop ~dir server;
          (wall_s, cpu_s)))

let socket_run ~exe ~workload ~seed ~seconds =
  let early = throwaway_setups ~exe ~workload ~seed (setups_before - 1) in
  with_dir @@ fun dir ->
  let server, fds, wall_s, cpu_s = set_up ~exe ~workload ~seed dir in
  let stopped = ref false in
  Fun.protect ~finally:(fun () ->
      if not !stopped then begin
        close_all fds;
        ignore (Client.stop_server server)
      end)
  @@ fun () ->
  let before = stats fds.(0) in
  let failed = Hashtbl.create 16 in
  let fail_request (req : Gen.request) why =
    if not (Hashtbl.mem failed req.Gen.id) then begin
      if Hashtbl.length failed < 5 then Printf.eprintf "perfbench: request %d failed: %s\n%!" req.Gen.id why;
      Hashtbl.replace failed req.Gen.id ()
    end
  in
  let res = { rng = Random.State.make [| seed; 99 |]; slots = Array.make sample_rows None; seen = 0 } in
  let telemetry = ref [] and acked_mutating = ref 0 in
  let replies = ref 0 and rss_mb = ref None in
  let conns =
    Array.mapi (fun conn fd -> Client.conn conn fd (Gen.stream workload ~seed ~conn)) fds
  in
  let on_reply (c : Client.conn) (req : Gen.request) reply =
    incr replies;
    if !replies = rss_at_replies workload then rss_mb := Some (Client.vm_hwm_mb server.Client.pid);
    if not (Client.healthy req reply) then fail_request req ("unhealthy reply: " ^ reply)
    else begin
      offer res req reply;
      if Gen.mutating req.Gen.kind then incr acked_mutating
    end;
    if workload = Gen.Durable_telemetry && c == conns.(0) then telemetry := (req, reply) :: !telemetry
  in
  let cpu0 = Client.cpu_ns server.Client.pid in
  let loop = Client.closed_loop conns ~seconds ~on_reply in
  let cpu_ns = Client.cpu_ns server.Client.pid - cpu0 in
  let rss_mb =
    match !rss_mb with
    | Some mb -> mb
    | None ->
        Printf.eprintf "perfbench: only %d replies; resident set read at the end of the run\n%!" !replies;
        Client.vm_hwm_mb server.Client.pid
  in
  per_connection "timed phase" loop;
  let probe_sent =
    if workload <> Gen.Durable_telemetry then 0
    else begin
      let probe = [| conns.(0); Client.conn 1 fds.(1) (Gen.single_reads ~seed) |] in
      let p = Client.closed_loop probe ~seconds:probe_seconds ~on_reply in
      per_connection "fairness probe, B reads single plans" p;
      p.Client.sent
    end
  in
  let after = stats fds.(0) in
  close_all fds;
  stopped := true;
  stop ~dir server;
  (* Served rows against the reference solver. *)
  let f_evals = ref 0 in
  Array.iter
    (function
      | None -> ()
      | Some ((req : Gen.request), j, reply) -> (
          let row = req.Gen.rows.(j) in
          match served_plan req j reply with
          | None -> fail_request req (Printf.sprintf "row %d has no decodable plan" j)
          | Some plan ->
              f_evals := !f_evals + plan.Optimizer.f_evals;
              let want = Optimizer.solve_reference ?fixed_n:row.Gen.fixed_n row.Gen.problem in
              if not (plan_equivalent plan want) then
                fail_request req
                  (Printf.sprintf
                     "row %d is not plan-equivalent to solve_reference (n %.17g vs %.17g, \
                      E(Tw) %.17g vs %.17g)"
                     j plan.Optimizer.n want.Optimizer.n plan.Optimizer.wall_clock
                     want.Optimizer.wall_clock)))
    res.slots;
  (* Connection A's telemetry replies against an in-process service fed
     A's stream in the same order. *)
  if workload = Gen.Durable_telemetry then begin
    let service = Service.create ~workers:0 () in
    Fun.protect ~finally:(fun () -> Service.shutdown service) @@ fun () ->
    List.iter
      (fun ((req : Gen.request), reply) ->
        if Service.handle_line_string service req.Gen.line <> reply then
          fail_request req "reply differs from the in-process service")
      (List.rev !telemetry)
  end;
  self_checks workload ~before ~after ~acked_mutating:!acked_mutating ~f_evals:!f_evals;
  let setups = ((wall_s, cpu_s) :: early) @ throwaway_setups ~exe ~workload ~seed setups_after in
  let lat =
    Array.map (fun (s : Client.sample) -> float_of_int s.Client.latency_ns /. 1e6) loop.Client.samples
    |> sorted
  in
  Printf.eprintf "perfbench: set-up, median of %d: %.4f s of server CPU, %.4f s wall\n%!"
    (List.length setups) (median (Array.of_list (List.map snd setups)))
    (median (Array.of_list (List.map fst setups)));
  { sent = loop.Client.sent + probe_sent;
    failed = Hashtbl.length failed;
    cpu_us_per_req = float_of_int cpu_ns /. 1e3 /. float_of_int loop.Client.sent;
    setup_s = median (Array.of_list (List.map snd setups));
    rss_mb;
    throughput_rps = float_of_int (Array.length lat) /. (float_of_int loop.Client.window_ns /. 1e9);
    p50_ms = percentile lat 0.5;
    p99_ms = percentile lat 0.99;
    samples = Array.length lat;
    steal = loop.Client.steal;
    retained_samples = retained after }

(* ---------------- the traced replay ---------------- *)

(* Stream lengths: a few seconds of in-process work each; cold-solve's
   inserts exceed the cache, so the replay evicts as the server does. *)
let replay_requests = function
  | Gen.Hot_plan -> 6000
  | Gen.Cold_solve -> 1000
  | Gen.Durable_telemetry -> 3000

let replay_once workload ~trace ~warmup lines =
  match workload with
  | Gen.Durable_telemetry ->
      with_dir (fun dir ->
          Replay.run ~trace
            ~durable:(Filename.concat dir "wal", Filename.concat dir "snap")
            ~warmup lines)
  | Gen.Hot_plan | Gen.Cold_solve -> Replay.run ~trace ~warmup lines

let traced_layers ~workload ~seed (sock : socket_run) =
  let n = replay_requests workload in
  let warmup = List.map (fun (r : Gen.request) -> r.Gen.line) (Gen.warmup workload ~seed) in
  let lines = List.map (fun (r : Gen.request) -> r.Gen.line) (Gen.interleaved workload ~seed ~n) in
  let us (r : Replay.result) = r.Replay.cpu_s *. 1e6 /. float_of_int n in
  (* Untraced, traced, untraced: the traced pass is compared with the
     mean of its neighbours, which cancels a linear drift of the host. *)
  let u1 = replay_once workload ~trace:false ~warmup lines in
  let traced = replay_once workload ~trace:true ~warmup lines in
  let u2 = replay_once workload ~trace:false ~warmup lines in
  let inproc_us = (us u1 +. us u2) /. 2. in
  let bad, ref_stats = Replay.mismatches ~warmup lines traced in
  List.iteri
    (fun k i -> if k < 3 then Printf.eprintf "perfbench: replayed response %d differs from the service's\n%!" i)
    bad;
  let counters = Replay.counter_mismatches traced ref_stats in
  List.iter
    (fun (name, mine, theirs) ->
      Printf.eprintf "perfbench: the replay counted %s %s, the service %s\n%!" name mine theirs)
    counters;
  Client.mkdir_p out_root;
  Spans.write traced.Replay.spans
    (Filename.concat out_root
       (Printf.sprintf "spans-%s-seed%d.tsv" (Gen.workload_name workload) seed));
  let degraded =
    match Json.member "resilience" ref_stats with None -> 0 | Some r -> int_at [ "degraded" ] r
  in
  let metrics =
    Layers.all traced ~inproc_us
      ~overhead_pct:(100. *. (us traced -. inproc_us) /. inproc_us)
      ~server_us:sock.cpu_us_per_req ~retained_samples:sock.retained_samples ~degraded
    @ Layers.
        [ m "wall.throughput_rps" "1/s" sock.throughput_rps;
          m "wall.latency_p50_ms" "ms" sock.p50_ms;
          m "wall.latency_p99_ms" "ms" sock.p99_ms;
          m "wall.host_steal_pct" "%" (100. *. sock.steal) ]
  in
  (n, List.length bad + List.length counters, metrics)

(* ---------------- main ---------------- *)

let result ~correct ~attempted ~failed metrics =
  Json.to_string
    (Json.Obj
       [ ("correct", Json.Bool correct);
         ("attempted", Json.Number (float_of_int attempted));
         ("failed", Json.Number (float_of_int failed));
         ( "metrics",
           Json.Obj
             (List.map
                (fun (m : Layers.metric) ->
                  (m.Layers.name, Json.Obj [ ("value", Json.Number m.Layers.value); ("unit", Json.String m.Layers.unit) ]))
                metrics) ) ])

let main ~exe ~workload ~seed ~seconds ~trace =
  let sock = socket_run ~exe ~workload ~seed ~seconds in
  let success = float_of_int (sock.sent - sock.failed) /. float_of_int sock.sent in
  Printf.eprintf
    "perfbench %s seed %d: %d sent, %d failed, server CPU %.2f us/req, setup %.4f s, rss %.2f \
     MiB; wall: %.1f rps, p50 %.3f ms, p99 %.3f ms over %d samples, host steal %.1f%%\n%!"
    (Gen.workload_name workload) seed sock.sent sock.failed sock.cpu_us_per_req sock.setup_s
    sock.rss_mb sock.throughput_rps sock.p50_ms sock.p99_ms sock.samples (100. *. sock.steal);
  if not trace then
    result ~correct:(sock.failed = 0) ~attempted:sock.sent ~failed:sock.failed
      Layers.
        [ m "server_cpu_us_per_req" "us" sock.cpu_us_per_req;
          m "success_ratio" "ratio" success;
          m "setup_s" "s" sock.setup_s;
          m "server_rss_peak_mb" "MiB" sock.rss_mb ]
  else begin
    let n, bad, metrics = traced_layers ~workload ~seed sock in
    List.iter (fun (x : Layers.metric) -> Printf.eprintf "  %-34s %14.3f %s\n" x.Layers.name x.Layers.value x.Layers.unit) metrics;
    let failed = sock.failed + bad in
    result ~correct:(failed = 0) ~attempted:(sock.sent + n) ~failed metrics
  end

let usage = "perfbench.exe --server PATH --workload NAME --seed N --seconds S --trace 0|1"

let () =
  let server = ref "" and workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  Arg.parse
    [ ("--server", Arg.Set_string server, "PATH ckpt_serve executable");
      ("--workload", Arg.Set_string workload, "NAME hot-plan | cold-solve | durable-telemetry");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S length of the timed phase");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics, or the traced per-layer replay") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let workload =
    match Gen.workload_of_string !workload with
    | Some w -> w
    | None ->
        prerr_endline usage;
        exit 2
  in
  if !server = "" || !seconds <= 0. || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline usage;
    exit 2
  end;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  match main ~exe:!server ~workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) with
  | line -> print_endline line
  | exception Client.Failed m ->
      prerr_endline ("perfbench: " ^ m);
      exit 1
