(* Crash-recovery smoke test against the real ckpt_serve binary.

   A live server (WAL + snapshots on) takes an observe-heavy stateful
   load over TCP; after a deterministic number of acked requests it is
   killed with SIGKILL mid-load.  Half a WAL frame is then appended to
   the newest segment, which is what a kill mid-append leaves behind.
   A second life on the same directories acks a few more ops — fewer
   than the snapshot interval, so no cut retires the torn segment — and
   is killed too.  A third life is fed the rest of the load plus
   estimate/replan probes.  Every response after a restart must be
   byte-identical to an in-process oracle service that processed the
   whole load without ever dying — i.e. every op acked in either life
   was recovered — and the third life's stats must report a real WAL
   replay.

   Usage:  crash_smoke.exe PATH/TO/ckpt_serve.exe [--ops N] [--kill-after K]

   Exit 0 on success, 1 on any mismatch or lost op.  Run by the CI
   crash-smoke job; needs nothing beyond the repo's own binaries. *)

module Json = Ckpt_json.Json
module Codec = Ckpt_model.Codec
module Frame = Ckpt_net.Frame
module Service = Ckpt_service.Service
module Protocol = Ckpt_service.Protocol

let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("crash_smoke: " ^ m); exit 1) fmt

(* ---------------- the load ---------------- *)

let problem =
  let open Ckpt_model in
  { Optimizer.te = 1e4 *. 86_400.;
    speedup = Speedup.quadratic ~kappa:0.46 ~n_star:1e5;
    levels = Level.fti_fusion;
    alloc = 60.;
    spec = Ckpt_failures.Failure_spec.of_string ~baseline_scale:1e5 "16-12-8-4" }

let observe_line i =
  let t0 = float_of_int i *. 1e4 in
  let ev fields = Json.Obj fields in
  Json.to_string
    (Json.Obj
       [ ("id", Json.Number (float_of_int i)); ("op", Json.String "observe");
         ( "events",
           Json.List
             [ ev [ ("t", Json.Number t0); ("ev", Json.String "start");
                    ("scale", Json.Number 1e5); ("levels", Json.Number 4.) ];
               ev [ ("t", Json.Number (t0 +. 7200.)); ("ev", Json.String "compute");
                    ("dur", Json.Number 7200.);
                    ("productive", Json.Number (7000. +. float_of_int (i mod 7))) ];
               ev [ ("t", Json.Number (t0 +. 7230.)); ("ev", Json.String "ckpt");
                    ("level", Json.Number (float_of_int (1 + (i mod 4))));
                    ("dur", Json.Number (25. +. float_of_int (i mod 3))) ];
               ev [ ("t", Json.Number (t0 +. 7230.)); ("ev", Json.String "end");
                    ("completed", Json.Bool true) ] ] ) ])

let load_line i =
  if i mod 7 = 6 then
    Json.to_string
      (Json.Obj
         [ ("id", Json.Number (float_of_int i)); ("op", Json.String "replan");
           ("problem", Codec.problem_to_json problem) ])
  else observe_line i

let probe_lines =
  [ Json.to_string (Json.Obj [ ("id", Json.Number 1000.); ("op", Json.String "estimate") ]);
    Json.to_string
      (Json.Obj
         [ ("id", Json.Number 1001.); ("op", Json.String "replan");
           ("problem", Codec.problem_to_json problem) ]) ]

(* ---------------- process + socket plumbing ---------------- *)

let snapshot_interval = 7

(* Ops the second life acks: fewer than [snapshot_interval], so no cut
   retires the torn segment before the second kill. *)
let second_life = 4

(* The live server, if any: killed at exit, so a failed check leaves
   no server behind. *)
let live = ref None

let kill_live () =
  Option.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !live;
  live := None

let spawn_server ~serve_bin ~port ~wal_dir ~snapshot_dir =
  let pid =
    Unix.create_process serve_bin
      [| serve_bin; "--listen"; Printf.sprintf "127.0.0.1:%d" port;
         "--wal-dir"; wal_dir; "--snapshot-dir"; snapshot_dir;
         "--snapshot-interval"; string_of_int snapshot_interval; "--workers"; "0" |]
      Unix.stdin Unix.stderr Unix.stderr
  in
  live := Some pid;
  pid

let kill_server pid client =
  Unix.kill pid Sys.sigkill;
  ignore (Unix.waitpid [] pid);
  live := None;
  try Unix.close (fst client) with Unix.Unix_error _ -> ()

(* Append the first half of the next record's frame to the newest WAL
   segment: the torn tail a kill between write calls leaves. *)
let tear_newest_segment ~wal_dir line =
  match List.rev (Ckpt_net.Disk.list_numbered ~prefix:"wal-" ~suffix:".log" wal_dir) with
  | [] -> fail "no WAL segment to tear in %s" wal_dir
  | newest :: _ ->
      let seq = (Ckpt_net.Wal.load ~dir:wal_dir ()).Ckpt_net.Wal.last_seq + 1 in
      let frame =
        Printf.sprintf "W %d %d %08x\n%s\n" seq (String.length line)
          (Ckpt_net.Crc32.string line) line
      in
      let path = Filename.concat wal_dir newest in
      Out_channel.with_open_gen [ Open_append; Open_binary ] 0o644 path (fun oc ->
          Out_channel.output_substring oc frame 0 (String.length frame / 2));
      Printf.eprintf "crash_smoke: tore %s with half of seq %d's frame\n%!" newest seq

let connect ~port =
  let deadline = Unix.gettimeofday () +. 15. in
  let rec go () =
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port)) with
    | () ->
        Unix.setsockopt_float fd Unix.SO_RCVTIMEO 30.;
        (fd, Frame.reader fd)
    | exception Unix.Unix_error ((ECONNREFUSED | ECONNRESET | ETIMEDOUT), _, _)
      when Unix.gettimeofday () < deadline ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        ignore (Unix.select [] [] [] 0.1);
        go ()
    | exception e ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        fail "connect to port %d: %s" port (Printexc.to_string e)
  in
  go ()

(* In-order map: both the oracle and the live asks are side-effecting,
   and neither List.init nor (@) guarantees evaluation order. *)
let map_in_order f xs =
  List.rev (List.fold_left (fun acc x -> f x :: acc) [] xs)

let range lo hi = List.init (hi - lo) (fun k -> lo + k)

let ask (fd, reader) line =
  Frame.write_line fd line;
  match Frame.read_line reader with
  | Frame.Line l -> l
  | Frame.Eof -> fail "server closed the connection mid-request"
  | Frame.Timeout -> fail "request timed out"
  | Frame.Oversized -> fail "oversized response"

let ok_response line =
  match Json.parse_result line with
  | Ok json -> Protocol.response_ok json
  | Error _ -> false

let rec rm path =
  if Sys.is_directory path then begin
    Array.iter (fun e -> rm (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

(* ---------------- main ---------------- *)

let () =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  let serve_bin = ref None in
  let ops = ref 40 in
  let kill_after = ref 23 in
  let rec parse = function
    | [] -> ()
    | "--ops" :: v :: rest -> ops := int_of_string v; parse rest
    | "--kill-after" :: v :: rest -> kill_after := int_of_string v; parse rest
    | p :: rest when !serve_bin = None -> serve_bin := Some p; parse rest
    | p :: _ -> fail "unexpected argument %S" p
  in
  parse (List.tl (Array.to_list Sys.argv));
  let serve_bin =
    match !serve_bin with
    | Some p when Sys.file_exists p -> p
    | Some p -> fail "no such binary: %s" p
    | None -> fail "usage: crash_smoke.exe PATH/TO/ckpt_serve.exe [--ops N] [--kill-after K]"
  in
  if !kill_after < 1 || !kill_after + second_life >= !ops then
    fail "--kill-after must be in [1, ops - %d); got %d of %d" second_life !kill_after !ops;
  let resume = !kill_after + second_life in
  let root =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "ckpt-crash-smoke-%d" (Unix.getpid ()))
  in
  let wal_dir = Filename.concat root "wal" in
  let snapshot_dir = Filename.concat root "snap" in
  if Sys.file_exists root then rm root;
  Unix.mkdir root 0o755;
  let port = 40_000 + (Unix.getpid () mod 20_000) in
  (* [fail] exits: clean up at exit rather than on unwinding. *)
  at_exit (fun () ->
      kill_live ();
      if Sys.file_exists root then rm root);
  (* Life 1: serve the prefix, every response acked, then SIGKILL. *)
  let pid = spawn_server ~serve_bin ~port ~wal_dir ~snapshot_dir in
  let client = connect ~port in
  for i = 0 to !kill_after - 1 do
    let r = ask client (load_line i) in
    if not (ok_response r) then fail "life 1: op %d was refused: %s" i r
  done;
  kill_server pid client;
  Printf.eprintf "crash_smoke: killed pid %d after %d acked ops\n%!" pid !kill_after;
  tear_newest_segment ~wal_dir (load_line !kill_after);
  (* The oracle never died: a fresh in-process service takes the whole
     load.  Its responses past the first kill (and to the probes) are
     the expected bytes — if a restarted server lost any acked op, its
     telemetry counts shift and the comparison fails. *)
  let oracle = Service.create ~workers:0 () in
  let expected =
    Fun.protect ~finally:(fun () -> Service.shutdown oracle) (fun () ->
        let all =
          map_in_order
            (fun i -> Service.handle_line_string oracle (load_line i))
            (range 0 !ops)
        in
        let probes = map_in_order (Service.handle_line_string oracle) probe_lines in
        List.filteri (fun i _ -> i >= !kill_after) all @ probes)
  in
  let check ~from got =
    List.iteri
      (fun i have ->
        let want = List.nth expected (from + i) in
        if want <> have then
          fail "response %d diverged after restart:\n  oracle: %s\n  server: %s" (from + i)
            want have)
      got
  in
  (* Life 2: same directories, past the torn tail; ack a few ops, then
     SIGKILL again before any snapshot cut retires the torn segment. *)
  let pid = spawn_server ~serve_bin ~port ~wal_dir ~snapshot_dir in
  let client = connect ~port in
  check ~from:0 (map_in_order (fun i -> ask client (load_line i)) (range !kill_after resume));
  kill_server pid client;
  Printf.eprintf "crash_smoke: killed pid %d after %d more acked ops\n%!" pid second_life;
  (* Life 3: serve the rest + probes. *)
  let pid = spawn_server ~serve_bin ~port ~wal_dir ~snapshot_dir in
  let client = connect ~port in
  let got =
    (* Explicit sequencing: the probes must not reach the server before
       the tail, and (@) gives no evaluation-order guarantee. *)
    let tail = map_in_order (fun i -> ask client (load_line i)) (range resume !ops) in
    let probes = map_in_order (ask client) probe_lines in
    tail @ probes
  in
  check ~from:second_life got;
  (* The recovery must have been a real WAL replay, and say so. *)
  let stats =
    ask client (Json.to_string (Json.Obj [ ("op", Json.String "stats") ]))
  in
  let durability =
    Option.bind (Json.parse_result stats |> Result.to_option) (fun j ->
        Option.bind (Json.member "stats" j) (Json.member "durability"))
  in
  (match durability with
  | None -> fail "stats carries no durability object: %s" stats
  | Some d ->
      (match Option.bind (Json.member "wal" d) Json.to_bool with
      | Some true -> ()
      | _ -> fail "stats says the WAL is off");
      (* No cut ran in the second life, so its acked ops are all WAL. *)
      (match Option.bind (Json.member "replayed" d) Json.to_int with
      | Some n when n >= second_life ->
          Printf.eprintf "crash_smoke: restart replayed %d WAL records\n%!" n
      | Some n ->
          fail "restart replayed %d records; expected at least the second life's %d" n
            second_life
      | None -> fail "stats durability object has no replayed count"));
  ignore (ask client (Json.to_string (Json.Obj [ ("op", Json.String "shutdown") ])));
  (try Unix.close (fst client) with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] pid);
  live := None;
  Printf.printf
    "crash_smoke: PASS — %d ops, kill -9 after %d, torn tail, kill -9 after %d more, \
     every acked op recovered\n"
    !ops !kill_after second_life
