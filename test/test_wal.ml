(* Tests for the write-ahead durability layer: WAL framing and
   group-commit semantics, torn/garbage-tail truncation, rotation and
   snapshot-cut compaction, fsync-failure refusal, the exhaustive
   crash-point sweep and its qcheck generalization (restarted state is
   byte-identical to an oracle that processed exactly the durable
   prefix), a seeded 10%-fault durability soak that loses zero acked
   ops, Durable recovery hygiene (tmp cleanup, corrupt-only WAL dirs),
   the model-driven auto-tuner, and the server integration (health in
   stats, stop-mid-snapshot, op-granularity kill-and-restart). *)

open Ckpt_model
open Ckpt_net
module Service = Ckpt_service.Service
module Protocol = Ckpt_service.Protocol
module Chaos = Ckpt_chaos.Chaos
module Json = Ckpt_json.Json
module Failure_spec = Ckpt_failures.Failure_spec
module Synth = Ckpt_calibrate.Synth

(* ---------------- request lines ---------------- *)

let mk_problem ?(te_days = 1e4) ?(kappa = 0.46) ?(n_star = 1e5) ?(alloc = 60.)
    ?(rates = "16-12-8-4") ?(levels = Level.fti_fusion) () =
  { Optimizer.te = te_days *. 86_400.;
    speedup = Speedup.quadratic ~kappa ~n_star;
    levels;
    alloc;
    spec = Failure_spec.of_string ~baseline_scale:n_star rates }

let problem_pool =
  Array.init 4 (fun i -> mk_problem ~te_days:(1e4 +. (500. *. float_of_int i)) ())

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

let estimate_line i =
  Json.to_string
    (Json.Obj [ ("id", Json.Number (float_of_int i)); ("op", Json.String "estimate") ])

let replan_line i =
  Json.to_string
    (Json.Obj
       [ ("id", Json.Number (float_of_int i)); ("op", Json.String "replan");
         ("problem", Codec.problem_to_json problem_pool.(i mod Array.length problem_pool)) ])

(* One calibrate line over a deterministic synthetic SCR session — the
   third stateful op kind the WAL covers. *)
let calibrate_line =
  lazy
    (let lines =
       Synth.session_lines ~runs:2 ~seed:42 (Synth.demo_config (Synth.demo_problem ()))
     in
     Json.to_string
       (Json.Obj
          [ ("id", Json.String "cal"); ("op", Json.String "calibrate");
            ("problem", Codec.problem_to_json (Synth.demo_problem ()));
            ("log", Json.List (List.map (fun s -> Json.String s) lines)) ]))

(* The crash-point streams are all-stateful on purpose: every line gets
   one WAL record, so record [seq = i + 1] is exactly [List.nth stream i]
   whenever no fault skips a sequence number. *)
let stateful_stream () =
  [ observe_line 0; observe_line 1; replan_line 0; Lazy.force calibrate_line;
    observe_line 2; replan_line 1 ]

let response_ok line =
  match Json.parse_result line with
  | Ok json -> Protocol.response_ok json
  | Error _ -> false

(* ---------------- harness ---------------- *)

let with_service f =
  let service = Service.create ~workers:0 () in
  Fun.protect ~finally:(fun () -> Service.shutdown service) (fun () -> f service)

let tmp_counter = ref 0

let with_tmp_dir f =
  incr tmp_counter;
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "ckpt-wal-test-%d-%d" (Unix.getpid ()) !tmp_counter)
  in
  let rec rm path =
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path
  in
  Unix.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> if Sys.file_exists dir then rm dir) (fun () -> f dir)

let durable_config ?snapshot_dir ?(batch = 1) ~wal_dir () =
  Durable.config ?snapshot_dir
    ~wal:(Wal.config ~fsync_batch:batch ~dir:wal_dir ()) ()

type life = {
  acked : string list;  (* lines answered ok, in order *)
  crashed : bool;
  steps : int;  (* durability steps consulted *)
}

(* One server life driven in-process: create the durability layer
   (recovery included), feed [stream] through the service, cut a
   snapshot after each op index in [cuts], and end with {!Durable.abort}
   — the kill -9 equivalent.  [fault (step, op)] decides each durability
   step's fate; an injected crash anywhere unwinds to here, exactly like
   process death. *)
let run_life ?(fault = fun _ -> None) ?(cuts = []) ?(batch = 1) ?snapshot_dir
    ~wal_dir ~stream () =
  let step = ref (-1) in
  let inject ~op =
    incr step;
    fault (!step, op)
  in
  with_service @@ fun service ->
  let cfg = durable_config ?snapshot_dir ~batch ~wal_dir () in
  match Durable.create ~inject cfg service with
  | exception Wal.Injected_crash _ -> { acked = []; crashed = true; steps = !step + 1 }
  | Error m -> Alcotest.failf "Durable.create failed: %s" m
  | Ok d ->
      let acked = ref [] in
      let crashed = ref false in
      (try
         List.iteri
           (fun i line ->
             let r = Service.handle_line_string service line in
             if response_ok r then acked := line :: !acked;
             if List.mem i cuts then ignore (Durable.cut d ~service ~seq:(i + 1)))
           stream
       with Wal.Injected_crash _ -> crashed := true);
      Durable.abort d;
      { acked = List.rev !acked; crashed = !crashed; steps = !step + 1 }

(* What survives on disk, as (seq, line) pairs plus the snapshot's
   watermark.  Everything at or below the watermark is folded into the
   snapshot even if compaction already deleted its WAL segment. *)
let disk_state ?snapshot_dir ~wal_dir () =
  let watermark =
    match snapshot_dir with
    | None -> 0
    | Some dir -> (
        match Snapshot.load_latest ~dir () with
        | Some s -> s.Snapshot.wal_seq
        | None -> 0)
  in
  (watermark, Wal.load ~dir:wal_dir ())

(* Session-state probes: estimate is a pure function of the telemetry
   session, replan re-solves from it (never cached), so byte equality
   here means the estimators and their downstream plans are identical. *)
let probe_responses service =
  List.map
    (Service.handle_line_string service)
    [ estimate_line 100; replan_line 0; estimate_line 101 ]

let oracle_responses lines =
  with_service @@ fun service ->
  List.iter (fun l -> ignore (Service.handle_line_string service l)) lines;
  probe_responses service

let restarted_responses ?snapshot_dir ~wal_dir () =
  with_service @@ fun service ->
  let cfg = durable_config ?snapshot_dir ~wal_dir () in
  match Durable.create cfg service with
  | Error m -> Alcotest.failf "restart Durable.create failed: %s" m
  | Ok d ->
      let r = probe_responses service in
      Durable.abort d;
      r

let is_prefix_of xs ys =
  let rec walk = function
    | [], _ -> true
    | _, [] -> false
    | x :: xs, y :: ys -> x = y && walk (xs, ys)
  in
  walk (xs, ys)

(* ---------------- wal unit tests ---------------- *)

let payloads =
  [ "{\"op\":\"observe\"}"; "x"; String.make 300 'q'; "unicode \xc3\xa9\xc2\xb5";
    "{\"op\":\"replan\",\"id\":4}"; "tail" ]

let append_all w lines =
  List.map
    (fun l ->
      match Wal.append w l with
      | Ok seq -> seq
      | Error m -> Alcotest.failf "append failed: %s" m)
    lines

let test_wal_roundtrip () =
  with_tmp_dir @@ fun dir ->
  let wal_dir = Filename.concat dir "wal" in
  (match Wal.open_ (Wal.config ~dir:wal_dir ()) ~next_seq:1 with
  | Error m -> Alcotest.failf "open failed: %s" m
  | Ok w ->
      let seqs = append_all w payloads in
      Alcotest.(check (list int)) "dense seqs" [ 1; 2; 3; 4; 5; 6 ] seqs;
      Alcotest.(check int) "synced (batch 1)" 6 (Wal.synced_seq w);
      Wal.close w);
  let scan = Wal.load ~dir:wal_dir () in
  Alcotest.(check (list string)) "payloads byte-identical" payloads
    (List.map snd scan.Wal.records);
  Alcotest.(check (list int)) "seqs in order" [ 1; 2; 3; 4; 5; 6 ]
    (List.map fst scan.Wal.records);
  Alcotest.(check int) "last_seq" 6 scan.Wal.last_seq;
  Alcotest.(check int) "nothing dropped" 0 scan.Wal.dropped_records;
  (* A second life opens a fresh segment past everything on disk. *)
  match Wal.open_ (Wal.config ~dir:wal_dir ()) ~next_seq:(scan.Wal.last_seq + 1) with
  | Error m -> Alcotest.failf "reopen failed: %s" m
  | Ok w ->
      ignore (append_all w [ "late" ]);
      Wal.close w;
      let scan = Wal.load ~dir:wal_dir () in
      Alcotest.(check (list string)) "old + new" (payloads @ [ "late" ])
        (List.map snd scan.Wal.records)

let test_wal_group_commit () =
  with_tmp_dir @@ fun dir ->
  let wal_dir = Filename.concat dir "wal" in
  match Wal.open_ (Wal.config ~fsync_batch:3 ~dir:wal_dir ()) ~next_seq:1 with
  | Error m -> Alcotest.failf "open failed: %s" m
  | Ok w ->
      List.iter (fun i -> ignore (append_all w [ string_of_int i ]))
        [ 1; 2; 3; 4; 5; 6; 7 ];
      Alcotest.(check int) "fsync at each batch boundary" 2 (Wal.fsyncs w);
      Alcotest.(check int) "synced up to the last boundary" 6 (Wal.synced_seq w);
      (* The written-but-unsynced record is on disk (readable) already:
         a crash here cannot unwrite it, only a torn write could. *)
      let scan = Wal.load ~dir:wal_dir () in
      Alcotest.(check int) "written tail visible" 7 scan.Wal.last_seq;
      (match Wal.flush w with
      | Ok () -> ()
      | Error m -> Alcotest.failf "flush failed: %s" m);
      Alcotest.(check int) "flush syncs the tail" 7 (Wal.synced_seq w);
      Alcotest.(check int) "third fsync" 3 (Wal.fsyncs w);
      Wal.close w

let test_wal_rotation_and_retire () =
  with_tmp_dir @@ fun dir ->
  let wal_dir = Filename.concat dir "wal" in
  (* segment_bytes = 1: every append rotates first, one record per
     segment — compaction's worst case. *)
  match Wal.open_ (Wal.config ~segment_bytes:1 ~dir:wal_dir ()) ~next_seq:1 with
  | Error m -> Alcotest.failf "open failed: %s" m
  | Ok w ->
      ignore (append_all w [ "a"; "b"; "c"; "d" ]);
      Alcotest.(check bool) "rotated into several segments" true (Wal.segments w > 2);
      let deleted = Wal.retire w ~upto:2 in
      Alcotest.(check bool) "retired the covered segments" true (deleted >= 2);
      let scan = Wal.load ~dir:wal_dir () in
      Alcotest.(check (list string)) "suffix survives compaction" [ "c"; "d" ]
        (List.map snd scan.Wal.records);
      (* Retire is idempotent: nothing left at or below the watermark. *)
      Alcotest.(check int) "second retire is a no-op" 0 (Wal.retire w ~upto:2);
      ignore (append_all w [ "e" ]);
      Wal.close w;
      let scan = Wal.load ~dir:wal_dir () in
      Alcotest.(check (list string)) "appends continue after compaction"
        [ "c"; "d"; "e" ]
        (List.map snd scan.Wal.records)

(* Truncating the log at any byte yields exactly the records whose
   frames fit, and never raises. *)
let test_wal_torn_tail =
  QCheck.Test.make ~count:120 ~name:"wal load truncates at the first torn record"
    QCheck.(int_range 0 2000)
    (fun cut ->
      with_tmp_dir @@ fun dir ->
      let wal_dir = Filename.concat dir "wal" in
      let seg =
        match Wal.open_ (Wal.config ~dir:wal_dir ()) ~next_seq:1 with
        | Error m -> Alcotest.failf "open failed: %s" m
        | Ok w ->
            ignore (append_all w payloads);
            Wal.close w;
            Filename.concat wal_dir
              (List.find (fun f -> f <> "." && f <> "..")
                 (Array.to_list (Sys.readdir wal_dir)))
      in
      let image = In_channel.with_open_bin seg In_channel.input_all in
      let cut = min cut (String.length image) in
      Out_channel.with_open_bin seg (fun oc ->
          Out_channel.output_string oc (String.sub image 0 cut));
      (* Expected: every record whose full frame (header + payload + \n)
         lies within [cut] bytes. *)
      let expected =
        let rec walk off acc = function
          | [] -> List.rev acc
          | (seq, p) :: rest ->
              let frame_len =
                String.length
                  (Printf.sprintf "W %d %d %08x\n%s\n" seq (String.length p)
                     (Crc32.string p) p)
              in
              if off + frame_len <= cut then walk (off + frame_len) (p :: acc) rest
              else List.rev acc
        in
        walk 0 [] (List.mapi (fun i p -> (i + 1, p)) payloads)
      in
      let scan = Wal.load ~dir:wal_dir () in
      List.map snd scan.Wal.records = expected
      && (cut = String.length image || scan.Wal.dropped_records + 1 >= 1))

let test_wal_corruption_prefix =
  QCheck.Test.make ~count:200
    ~name:"wal load survives any single-byte corruption with a payload prefix"
    QCheck.(pair (int_range 0 100_000) (int_range 0 255))
    (fun (pos, byte) ->
      with_tmp_dir @@ fun dir ->
      let wal_dir = Filename.concat dir "wal" in
      let seg =
        match Wal.open_ (Wal.config ~dir:wal_dir ()) ~next_seq:1 with
        | Error m -> Alcotest.failf "open failed: %s" m
        | Ok w ->
            ignore (append_all w payloads);
            Wal.close w;
            Filename.concat wal_dir
              (List.find (fun f -> f <> "." && f <> "..")
                 (Array.to_list (Sys.readdir wal_dir)))
      in
      let image = In_channel.with_open_bin seg In_channel.input_all in
      let pos = pos mod String.length image in
      let b = Bytes.of_string image in
      QCheck.assume (Bytes.get b pos <> Char.chr byte);
      Bytes.set b pos (Char.chr byte);
      Out_channel.with_open_bin seg (fun oc ->
          Out_channel.output_string oc (Bytes.to_string b));
      match Wal.load ~dir:wal_dir () with
      | scan -> is_prefix_of (List.map snd scan.Wal.records) payloads
      | exception e -> Alcotest.failf "load raised %s" (Printexc.to_string e))

let test_wal_fsync_failure_refuses_op () =
  with_tmp_dir @@ fun root ->
  let wal_dir = Filename.concat root "wal" in
  let stream = [ observe_line 0; observe_line 1; observe_line 2 ] in
  (* Step 0 is the startup segment-create; op i's append consult is step
     1 + 2i under batch 1.  Fail the second op's fsync. *)
  let refused_step = 3 in
  let life =
    run_life
      ~fault:(fun (step, _) -> if step = refused_step then Some Chaos.Fsync_fail else None)
      ~wal_dir ~stream ()
  in
  Alcotest.(check bool) "no crash: a refused op is not a death" false life.crashed;
  Alcotest.(check (list string)) "ops 1 and 3 acked, op 2 refused"
    [ observe_line 0; observe_line 2 ] life.acked;
  let scan = Wal.load ~dir:wal_dir () in
  (* The refused record was erased; its sequence number is burned, not
     reused — reuse could collide with a snapshot watermark that already
     covers it. *)
  Alcotest.(check (list int)) "seq gap where the refused op was" [ 1; 3 ]
    (List.map fst scan.Wal.records);
  Alcotest.(check (list string)) "restart equals the acked-only oracle"
    (oracle_responses [ observe_line 0; observe_line 2 ])
    (restarted_responses ~wal_dir ())

(* The refused op must answer with the durability error code. *)
let test_fsync_failure_error_code () =
  with_tmp_dir @@ fun root ->
  let wal_dir = Filename.concat root "wal" in
  with_service @@ fun service ->
  let step = ref (-1) in
  let inject ~op:_ =
    incr step;
    if !step = 1 then Some Chaos.Fsync_fail else None
  in
  match Durable.create ~inject (durable_config ~wal_dir ()) service with
  | Error m -> Alcotest.failf "create failed: %s" m
  | Ok d ->
      let r = Json.parse (Service.handle_line_string service (observe_line 0)) in
      Alcotest.(check bool) "not ok" false (Protocol.response_ok r);
      Alcotest.(check (option string)) "code durability" (Some "durability")
        (match Json.member "error" r with
        | Some e -> Json.string_field "code" e
        | None -> None);
      (* The log stays usable: the next op is accepted. *)
      let r2 = Service.handle_line_string service (observe_line 1) in
      Alcotest.(check bool) "wal usable after a refused op" true (response_ok r2);
      let p = Durable.persistence d in
      Alcotest.(check bool) "error counted" true (p.Durable.wal_errors >= 1);
      Alcotest.(check bool) "error surfaced" true (p.Durable.last_error <> None);
      Durable.abort d

(* ---------------- the crash-point property ---------------- *)

(* Exhaustive sweep: inject a crash (even steps) or torn write (odd
   steps) at every durability step across append, fsync, snapshot
   stages, segment rotation and compaction.  After each crash the
   restarted state must equal an oracle that processed exactly the
   durable prefix — and the acked ops are always within that prefix. *)
let test_crash_point_sweep () =
  let stream = stateful_stream () in
  let cuts = [ 2; 4 ] in
  let baseline_steps =
    with_tmp_dir @@ fun root ->
    let wal_dir = Filename.concat root "wal" in
    let snapshot_dir = Filename.concat root "snap" in
    let life = run_life ~cuts ~snapshot_dir ~wal_dir ~stream () in
    Alcotest.(check bool) "baseline does not crash" false life.crashed;
    Alcotest.(check int) "baseline acks everything" (List.length stream)
      (List.length life.acked);
    life.steps
  in
  Alcotest.(check bool) "the run has many crash points" true (baseline_steps > 15);
  let crashes = ref 0 in
  for k = 0 to baseline_steps + 1 do
    with_tmp_dir @@ fun root ->
    let wal_dir = Filename.concat root "wal" in
    let snapshot_dir = Filename.concat root "snap" in
    let kind = if k mod 2 = 0 then Chaos.Crash else Chaos.Torn in
    let life =
      run_life
        ~fault:(fun (step, _) -> if step = k then Some kind else None)
        ~cuts ~snapshot_dir ~wal_dir ~stream ()
    in
    if life.crashed then incr crashes;
    let watermark, scan = disk_state ~snapshot_dir ~wal_dir () in
    (* Only crash/torn faults here, so sequence numbers are dense and
       positional: record seq i+1 is stream line i. *)
    let m = List.fold_left (fun a (seq, _) -> max a seq) watermark scan.Wal.records in
    let durable = List.filteri (fun i _ -> i < m) stream in
    Alcotest.(check bool)
      (Printf.sprintf "crash point %d: acked ops are durable" k)
      true
      (List.length life.acked <= m && is_prefix_of life.acked durable);
    Alcotest.(check (list string))
      (Printf.sprintf "crash point %d: restart equals the durable-prefix oracle" k)
      (oracle_responses durable)
      (restarted_responses ~snapshot_dir ~wal_dir ())
  done;
  Alcotest.(check bool) "the sweep actually killed some lives" true (!crashes > 10)

(* The qcheck generalization: any fault kind, any step, any group-commit
   batch.  Without snapshots the durable lines are exactly the WAL
   payloads on disk, whatever sequence gaps refusals left behind; an
   acked op may be lost only through the documented relaxed-batch
   window, never more than batch - 1 of them. *)
let test_crash_point_qcheck =
  QCheck.Test.make ~count:50
    ~name:"restart equals the durable-prefix oracle at any injected fault"
    QCheck.(triple (int_range 0 16) (int_range 0 3) (int_range 1 3))
    (fun (k, kind_i, batch) ->
      let kind =
        [| Chaos.Crash; Chaos.Torn; Chaos.Short_write; Chaos.Fsync_fail |].(kind_i)
      in
      let stream = stateful_stream () in
      with_tmp_dir @@ fun root ->
      let wal_dir = Filename.concat root "wal" in
      let life =
        run_life
          ~fault:(fun (step, _) -> if step = k then Some kind else None)
          ~batch ~wal_dir ~stream ()
      in
      let _, scan = disk_state ~wal_dir () in
      let durable = List.map snd scan.Wal.records in
      let lost =
        List.filter (fun line -> not (List.mem line durable)) life.acked
      in
      List.length lost <= batch - 1
      && oracle_responses durable = restarted_responses ~wal_dir ())

(* Ops a second life acks on top of whatever the first left on disk. *)
let second_stream n =
  List.filteri (fun i _ -> i < n)
    [ observe_line 20; replan_line 2; observe_line 21; Lazy.force calibrate_line ]

(* A torn tail, then a second life that acks more ops: the third life
   must recover every op either acked.  Life 1 dies tearing the append
   of stream op [torn] (step 1 + 2 * torn under batch 1: step 0 is the
   startup segment-create, then an append and an fsync per op), life 2
   recovers, acks [k] ops and dies, and life 3 must answer like an
   oracle that processed exactly the acked ops.  A recovery that left
   the torn record on disk would stop there in life 3, short of life
   2's segment. *)
let test_torn_tail_then_second_life () =
  let stream = stateful_stream () in
  List.iter
    (fun (torn, k) ->
      with_tmp_dir @@ fun root ->
      let wal_dir = Filename.concat root "wal" in
      let life1 =
        run_life
          ~fault:(fun (step, _) -> if step = 1 + (2 * torn) then Some Chaos.Torn else None)
          ~wal_dir ~stream ()
      in
      Alcotest.(check bool) "life 1 dies mid-append" true life1.crashed;
      Alcotest.(check (list string)) "life 1 acks the ops before the tear"
        (List.filteri (fun i _ -> i < torn) stream) life1.acked;
      let life2 = run_life ~wal_dir ~stream:(second_stream k) () in
      Alcotest.(check int) "life 2 acks every op" k (List.length life2.acked);
      let scan = Wal.load ~dir:wal_dir () in
      Alcotest.(check int) "no bad record left on disk" 0
        (scan.Wal.dropped_records + scan.Wal.skipped_segments);
      Alcotest.(check (list string))
        (Printf.sprintf "tear at op %d, %d more acked: life 3 equals the acked oracle" torn k)
        (oracle_responses (life1.acked @ life2.acked))
        (restarted_responses ~wal_dir ()))
    [ (0, 1); (1, 1); (2, 3); (5, 4) ]

(* The crash-point qcheck with a second life: whatever fault ended the
   first life, a fault-free second life that acks more ops leaves a log
   whose restart equals the oracle over the first life's durable lines
   and every op the second acked. *)
let test_crash_point_second_life_qcheck =
  QCheck.Test.make ~count:50
    ~name:"a second life after any injected fault keeps every op it acked"
    QCheck.(quad (int_range 0 16) (int_range 0 3) (int_range 1 3) (int_range 1 4))
    (fun (k, kind_i, batch, n2) ->
      let kind =
        [| Chaos.Crash; Chaos.Torn; Chaos.Short_write; Chaos.Fsync_fail |].(kind_i)
      in
      with_tmp_dir @@ fun root ->
      let wal_dir = Filename.concat root "wal" in
      let life1 =
        run_life
          ~fault:(fun (step, _) -> if step = k then Some kind else None)
          ~batch ~wal_dir ~stream:(stateful_stream ()) ()
      in
      let _, scan = disk_state ~wal_dir () in
      let durable = List.map snd scan.Wal.records in
      let lost = List.filter (fun line -> not (List.mem line durable)) life1.acked in
      let life2 = run_life ~batch ~wal_dir ~stream:(second_stream n2) () in
      List.length lost <= batch - 1
      && List.length life2.acked = n2
      && oracle_responses (durable @ life2.acked) = restarted_responses ~wal_dir ())

(* ---------------- durability soak ---------------- *)

(* 10% of durability steps fault (seeded, deterministic); lives are
   killed and restarted until 48 ops have been attempted, snapshots cut
   (and segments compacted) along the way.  Zero acked ops may be lost,
   and the final restart must equal an oracle that processed every
   durable record in order. *)
let test_durability_soak () =
  with_tmp_dir @@ fun root ->
  let wal_dir = Filename.concat root "wal" in
  let snapshot_dir = Filename.concat root "snap" in
  let chaos = Chaos.create (Chaos.spec ~seed:41 ~rate:0. ~durability_rate:0.1 ()) in
  let step = ref (-1) in
  let inject ~op:_ =
    incr step;
    Chaos.durability_fault chaos ~index:!step
  in
  let total_ops = 48 in
  let soak_line i = if i mod 5 = 4 then replan_line i else observe_line i in
  (* The journal accumulates every record ever seen on disk, keyed by
     seq — merged before each compaction cut so retired segments cannot
     take their payload text with them. *)
  let journal : (int, string) Hashtbl.t = Hashtbl.create 64 in
  let merge_scan () =
    let scan = Wal.load ~dir:wal_dir () in
    List.iter (fun (seq, line) -> Hashtbl.replace journal seq line) scan.Wal.records
  in
  let acked = ref [] in
  let op_i = ref 0 in
  let crashes = ref 0 in
  let lives = ref 0 in
  while !op_i < total_ops && !lives < 100 do
    incr lives;
    with_service (fun service ->
        let cfg = durable_config ~snapshot_dir ~wal_dir () in
        match Durable.create ~inject cfg service with
        | exception Wal.Injected_crash _ -> incr crashes
        | Error m -> Alcotest.failf "soak create failed: %s" m
        | Ok d -> (
            try
              while !op_i < total_ops do
                let line = soak_line !op_i in
                incr op_i;
                let r = Service.handle_line_string service line in
                if response_ok r then acked := line :: !acked;
                if !op_i mod 6 = 0 then begin
                  merge_scan ();
                  ignore (Durable.cut d ~service ~seq:!op_i)
                end
              done;
              Durable.abort d
            with Wal.Injected_crash _ ->
              incr crashes;
              Durable.abort d));
    merge_scan ()
  done;
  Alcotest.(check int) "every op was attempted" total_ops !op_i;
  Alcotest.(check bool) "the soak injected real crashes" true (!crashes > 0);
  Alcotest.(check bool) "and most ops were acked" true
    (List.length !acked > total_ops / 2);
  let durable =
    Hashtbl.fold (fun seq line acc -> (seq, line) :: acc) journal []
    |> List.sort compare |> List.map snd
  in
  List.iter
    (fun line ->
      Alcotest.(check bool) "acked op never lost" true (List.mem line durable))
    !acked;
  Alcotest.(check (list string)) "final restart equals the durable oracle"
    (oracle_responses durable)
    (restarted_responses ~snapshot_dir ~wal_dir ())

(* ---------------- recovery hygiene ---------------- *)

let test_tmp_cleanup_on_restart () =
  with_tmp_dir @@ fun root ->
  let wal_dir = Filename.concat root "wal" in
  let snapshot_dir = Filename.concat root "snap" in
  Unix.mkdir snapshot_dir 0o755;
  Out_channel.with_open_bin (Filename.concat snapshot_dir "snapshot-000000000007.ckpt.tmp")
    (fun oc -> Out_channel.output_string oc "half a snapshot");
  with_service @@ fun service ->
  match Durable.create (durable_config ~snapshot_dir ~wal_dir ()) service with
  | Error m -> Alcotest.failf "create failed: %s" m
  | Ok d ->
      let p = Durable.persistence d in
      Alcotest.(check int) "leftover tmp removed and counted" 1 p.Durable.tmp_removed;
      Alcotest.(check bool) "tmp file gone" true
        (Sys.readdir snapshot_dir
        |> Array.for_all (fun f -> not (Filename.check_suffix f ".tmp")));
      Durable.abort d

let test_corrupt_only_wal_dir_starts_fresh () =
  with_tmp_dir @@ fun root ->
  let wal_dir = Filename.concat root "wal" in
  Unix.mkdir wal_dir 0o755;
  Out_channel.with_open_bin (Filename.concat wal_dir "wal-000000000001.log")
    (fun oc -> Out_channel.output_string oc "this is not a wal segment\n\x00garbage");
  let logged = ref [] in
  with_service @@ fun service ->
  match
    Durable.create
      ~log:(fun m -> logged := m :: !logged)
      (durable_config ~wal_dir ()) service
  with
  | Error m -> Alcotest.failf "corrupt-only dir must still start: %s" m
  | Ok d ->
      let p = Durable.persistence d in
      Alcotest.(check int) "nothing replayed" 0 p.Durable.replayed;
      Alcotest.(check bool) "skip counted" true (p.Durable.replay_dropped >= 1);
      Alcotest.(check bool) "skip logged" true (!logged <> []);
      let r = Service.handle_line_string service (observe_line 0) in
      Alcotest.(check bool) "fresh server accepts ops" true (response_ok r);
      Durable.abort d

let test_empty_wal_dir_cold_start () =
  with_tmp_dir @@ fun root ->
  let wal_dir = Filename.concat root "wal" in
  with_service @@ fun service ->
  match Durable.create (durable_config ~wal_dir ()) service with
  | Error m -> Alcotest.failf "missing dir must be a cold start: %s" m
  | Ok d ->
      let p = Durable.persistence d in
      Alcotest.(check int) "no replay" 0 p.Durable.replayed;
      Alcotest.(check bool) "wal on" true p.Durable.wal_enabled;
      Durable.abort d

let test_snapshot_failure_counted () =
  with_tmp_dir @@ fun root ->
  let wal_dir = Filename.concat root "wal" in
  let snapshot_dir = Filename.concat root "snap" in
  with_service @@ fun service ->
  let fail_next = ref true in
  let inject ~op =
    if op = "snapshot-fsync" && !fail_next then begin
      fail_next := false;
      Some Chaos.Fsync_fail
    end
    else None
  in
  match Durable.create ~inject (durable_config ~snapshot_dir ~wal_dir ()) service with
  | Error m -> Alcotest.failf "create failed: %s" m
  | Ok d ->
      ignore (Service.handle_line_string service (observe_line 0));
      (match Durable.cut d ~service ~seq:1 with
      | Ok _ -> Alcotest.fail "the injected fsync failure must fail the cut"
      | Error _ -> ());
      let p = Durable.persistence d in
      Alcotest.(check int) "failure counted" 1 p.Durable.snapshot_failures;
      Alcotest.(check bool) "failure surfaced" true (p.Durable.last_error <> None);
      (* A failed cut retires nothing: the WAL records survive. *)
      Alcotest.(check bool) "wal not compacted by a failed cut" true
        ((Wal.load ~dir:wal_dir ()).Wal.records <> []);
      (match Durable.cut d ~service ~seq:1 with
      | Ok _ -> ()
      | Error m -> Alcotest.failf "the next cut must succeed: %s" m);
      let p = Durable.persistence d in
      Alcotest.(check int) "success counted" 1 p.Durable.snapshots_written;
      Alcotest.(check bool) "snapshot age tracked" true
        (p.Durable.last_snapshot_age_s >= 0.);
      Durable.abort d

(* ---------------- auto-tune ---------------- *)

let test_auto_tune () =
  let choice =
    Durable.auto_tune ~op_rate:1000. ~fsync_cost_s:1e-3 ~snapshot_cost_s:0.5
      ~crash_rate_per_day:24. ()
  in
  Alcotest.(check bool) "batch in range" true
    (choice.Durable.fsync_batch >= 1 && choice.Durable.fsync_batch <= 4096);
  Alcotest.(check bool) "snapshot interval at least the batch" true
    (choice.Durable.snapshot_interval >= choice.Durable.fsync_batch);
  Alcotest.(check bool) "overhead predicted and positive" true
    (Float.is_finite choice.Durable.predicted_overhead
    && choice.Durable.predicted_overhead > 0.);
  (* More failures -> checkpoint more often, on both levels: the
     paper's qualitative law, applied to the server itself. *)
  let risky =
    Durable.auto_tune ~op_rate:1000. ~fsync_cost_s:1e-3 ~snapshot_cost_s:0.5
      ~crash_rate_per_day:2400. ()
  in
  Alcotest.(check bool) "higher crash rate -> smaller fsync batch" true
    (risky.Durable.fsync_batch <= choice.Durable.fsync_batch);
  Alcotest.(check bool) "higher crash rate -> tighter snapshots" true
    (risky.Durable.snapshot_interval <= choice.Durable.snapshot_interval);
  (match Durable.auto_choice_json choice with
  | Json.Obj fields ->
      Alcotest.(check bool) "json carries the chosen intervals" true
        (List.mem_assoc "fsync_batch" fields && List.mem_assoc "snapshot_interval" fields)
  | _ -> Alcotest.fail "auto_choice_json must be an object");
  match Durable.auto_tune ~fsync_cost_s:1e-3 ~snapshot_cost_s:0.5 ~crash_rate_per_day:0. () with
  | _ -> Alcotest.fail "zero crash rate must be rejected"
  | exception Invalid_argument _ -> ()

let test_auto_measure () =
  with_tmp_dir @@ fun root ->
  let wal_dir = Filename.concat root "wal" in
  let snapshot_dir = Filename.concat root "snap" in
  (match Durable.measure_fsync_cost ~dir:wal_dir with
  | Ok cost -> Alcotest.(check bool) "fsync probe positive" true (cost >= 0.)
  | Error m -> Alcotest.failf "fsync probe failed: %s" m);
  Alcotest.(check bool) "probe file removed" true
    (Sys.readdir wal_dir |> Array.for_all (fun f -> f <> ".fsync-probe"));
  with_service @@ fun service ->
  ignore (Service.handle_line_string service (observe_line 0));
  match Durable.measure_snapshot_cost ~dir:snapshot_dir service with
  | Error m -> Alcotest.failf "snapshot probe failed: %s" m
  | Ok cost ->
      Alcotest.(check bool) "snapshot probe positive" true (cost >= 0.);
      Alcotest.(check bool) "the measured snapshot is real and loadable" true
        (Snapshot.load_latest ~dir:snapshot_dir () <> None)

(* ---------------- server integration ---------------- *)

let with_server ?(config = Server.default_config) f =
  with_service @@ fun service ->
  let server = Server.start ~config service in
  Fun.protect ~finally:(fun () -> Server.stop server; Server.join server)
    (fun () -> f service server)

type client = { fd : Unix.file_descr; reader : Frame.reader }

let connect server =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, Server.port server));
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 20.;
  { fd; reader = Frame.reader fd }

let close_client c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let ask_exn c what line =
  Frame.write_line c.fd line;
  match Frame.read_line c.reader with
  | Frame.Line l -> l
  | Frame.Eof | Frame.Timeout | Frame.Oversized ->
      Alcotest.failf "%s: connection closed or timed out" what

let with_client server f =
  let c = connect server in
  Fun.protect ~finally:(fun () -> close_client c) (fun () -> f c)

let test_server_stats_durability () =
  with_tmp_dir @@ fun root ->
  let config =
    { Server.default_config with
      Server.snapshot_dir = Some (Filename.concat root "snap");
      wal_dir = Some (Filename.concat root "wal");
      snapshot_interval = 2 }
  in
  with_server ~config @@ fun _service server ->
  ( with_client server @@ fun c ->
    List.iter
      (fun l -> ignore (ask_exn c "stats-durability" l))
      [ observe_line 0; observe_line 1; observe_line 2 ];
    let stats = Json.parse (ask_exn c "stats" (Json.to_string (Json.Obj [ ("op", Json.String "stats") ]))) in
    match Option.bind (Json.member "stats" stats) (Json.member "durability") with
    | Some (Json.Obj fields) ->
        Alcotest.(check (option Alcotest.bool)) "wal on" (Some true)
          (Option.bind (List.assoc_opt "wal" fields) Json.to_bool);
        Alcotest.(check bool) "appends counted" true
          (match List.assoc_opt "wal_appended" fields with
          | Some (Json.Number n) -> n >= 3.
          | _ -> false);
        Alcotest.(check bool) "snapshot cut reported" true
          (match List.assoc_opt "last_snapshot_seq" fields with
          | Some (Json.Number n) -> n >= 2.
          | _ -> false)
    | _ -> Alcotest.fail "stats response must carry a durability object" );
  let p = Server.persistence server in
  Alcotest.(check bool) "persistence mirror" true
    (p.Durable.wal_enabled && p.Durable.wal_appended >= 3)

let test_server_stop_mid_snapshot () =
  with_tmp_dir @@ fun root ->
  let snap = Filename.concat root "snap" in
  let server_ref = ref None in
  let stops = ref 0 in
  let inject ~op =
    (* A drain signal landing exactly mid-save: the cut must finish
       cleanly and the drain proceed. *)
    if op = "snapshot-write" then begin
      incr stops;
      Option.iter Server.stop !server_ref
    end;
    None
  in
  let config =
    { Server.default_config with
      Server.snapshot_dir = Some snap;
      wal_dir = Some (Filename.concat root "wal");
      snapshot_interval = 1;
      durability_inject = Some inject }
  in
  with_service @@ fun service ->
  let server = Server.start ~config service in
  server_ref := Some server;
  ( with_client server @@ fun c ->
    ignore (ask_exn c "observe before stop" (observe_line 0)) );
  Server.stop server;
  Server.join server;
  Alcotest.(check bool) "stop landed mid-snapshot" true (!stops >= 1);
  (match Snapshot.load_latest ~dir:snap () with
  | Some s ->
      Alcotest.(check bool) "the interrupted cut still committed" true
        (s.Snapshot.wal_seq >= 1)
  | None -> Alcotest.fail "no snapshot survived the drain");
  Alcotest.(check bool) "no tmp leftovers" true
    (Sys.readdir snap |> Array.for_all (fun f -> not (Filename.check_suffix f ".tmp")))

let test_server_config_validation () =
  let check name config =
    with_service @@ fun service ->
    match Server.start ~config service with
    | server ->
        Server.stop server;
        Server.join server;
        Alcotest.failf "%s: expected Invalid_argument" name
    | exception Invalid_argument _ -> ()
  in
  check "fsync_batch 0" { Server.default_config with Server.fsync_batch = 0 };
  check "negative fsync interval"
    { Server.default_config with Server.fsync_interval_ms = -1. }

let test_server_refuses_unusable_wal_dir () =
  with_tmp_dir @@ fun root ->
  (* A plain file where the WAL directory should be: mkdir fails. *)
  let wal_dir = Filename.concat root "wal" in
  Out_channel.with_open_bin wal_dir (fun oc -> Out_channel.output_string oc "not a dir");
  let config = { Server.default_config with Server.wal_dir = Some wal_dir } in
  with_service @@ fun service ->
  match Server.start ~config service with
  | server ->
      Server.stop server;
      Server.join server;
      Alcotest.fail "a server with an unusable WAL dir must refuse to start"
  | exception Failure m ->
      Alcotest.(check bool) "error names durability" true
        (String.length m > 0)

(* Kill-and-restart at op granularity: the WAL carries the stateful tail
   past the last snapshot (here: past *any* snapshot — snapshots are off
   and the first life is aborted, not drained). *)
let op_line (kind, i) =
  match kind mod 3 with
  | 0 -> observe_line i
  | 1 -> estimate_line i
  | _ -> replan_line i

let serve_stream ~config ~stop stream =
  with_service @@ fun service ->
  let server = Server.start ~config service in
  let responses =
    with_client server @@ fun c ->
    List.map (fun l -> ask_exn c "stream" l) stream
  in
  (match stop with
  | `Drain -> (Server.stop server; Server.join server)
  | `Kill -> Server.abort server);
  responses

let test_server_restart_op_granularity =
  QCheck.Test.make ~count:6
    ~name:"kill -9 between any two ops: the wal restart answers the tail byte-identically"
    QCheck.(pair (list_of_size Gen.(int_range 6 14) (pair small_nat small_nat))
              (int_range 1 5))
    (fun (ops, cut_at) ->
      QCheck.assume (ops <> []);
      let stream = List.map op_line ops in
      let cut = min cut_at (List.length stream - 1) in
      let prefix = List.filteri (fun i _ -> i < cut) stream in
      let tail = List.filteri (fun i _ -> i >= cut) stream in
      let expected_tail =
        let all = serve_stream ~config:Server.default_config ~stop:`Drain stream in
        List.filteri (fun i _ -> i >= cut) all
      in
      with_tmp_dir @@ fun root ->
      let config =
        { Server.default_config with Server.wal_dir = Some (Filename.concat root "wal") }
      in
      (* First life: serve the prefix, then die without drain, flush or
         snapshot — the on-disk state is whatever the per-op WAL left. *)
      ignore (serve_stream ~config ~stop:`Kill prefix);
      serve_stream ~config ~stop:`Drain tail = expected_tail)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "ckpt_wal"
    [ ( "wal",
        [ Alcotest.test_case "roundtrip" `Quick test_wal_roundtrip;
          Alcotest.test_case "group-commit" `Quick test_wal_group_commit;
          Alcotest.test_case "rotation-and-retire" `Quick test_wal_rotation_and_retire;
          qc test_wal_torn_tail;
          qc test_wal_corruption_prefix ] );
      ( "refusal",
        [ Alcotest.test_case "fsync-failure-refuses-op" `Quick
            test_wal_fsync_failure_refuses_op;
          Alcotest.test_case "durability-error-code" `Quick
            test_fsync_failure_error_code ] );
      ( "crash-points",
        [ Alcotest.test_case "exhaustive-sweep" `Quick test_crash_point_sweep;
          qc test_crash_point_qcheck;
          Alcotest.test_case "torn-tail-then-second-life" `Quick
            test_torn_tail_then_second_life;
          qc test_crash_point_second_life_qcheck;
          Alcotest.test_case "soak-10pct" `Quick test_durability_soak ] );
      ( "recovery",
        [ Alcotest.test_case "tmp-cleanup" `Quick test_tmp_cleanup_on_restart;
          Alcotest.test_case "corrupt-only-wal-dir" `Quick
            test_corrupt_only_wal_dir_starts_fresh;
          Alcotest.test_case "empty-wal-dir" `Quick test_empty_wal_dir_cold_start;
          Alcotest.test_case "snapshot-failure-counted" `Quick
            test_snapshot_failure_counted ] );
      ( "auto",
        [ Alcotest.test_case "tune" `Quick test_auto_tune;
          Alcotest.test_case "measure" `Quick test_auto_measure ] );
      ( "server",
        [ Alcotest.test_case "stats-durability" `Quick test_server_stats_durability;
          Alcotest.test_case "stop-mid-snapshot" `Quick test_server_stop_mid_snapshot;
          Alcotest.test_case "config-validation" `Quick test_server_config_validation;
          Alcotest.test_case "unusable-wal-dir" `Quick
            test_server_refuses_unusable_wal_dir;
          qc test_server_restart_op_granularity ] ) ]
