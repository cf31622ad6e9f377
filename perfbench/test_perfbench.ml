(* The benchmark's own tests: seeded generation, exactly repeating replay
   counts (with responses byte-identical to the service and the same
   work counters), and the span self-time arithmetic. *)

open Perfbench_lib

let lines_of reqs = List.map (fun (r : Gen.request) -> r.Gen.line) reqs

let stream w ~seed ~n = lines_of (Gen.warmup w ~seed) @ lines_of (Gen.interleaved w ~seed ~n)

let test_same_seed_same_bytes () =
  List.iter
    (fun w ->
      Alcotest.(check (list string))
        (Gen.workload_name w ^ " stream") (stream w ~seed:11 ~n:64) (stream w ~seed:11 ~n:64);
      Alcotest.(check bool)
        (Gen.workload_name w ^ " depends on the seed") false
        (stream w ~seed:11 ~n:64 = stream w ~seed:12 ~n:64))
    Gen.workloads

let test_cold_seeds_disjoint () =
  let problems seed =
    List.concat_map
      (fun (r : Gen.request) ->
        Array.to_list (Array.map (fun (row : Gen.row) -> Gen.problem_json row.Gen.problem) r.Gen.rows))
      (Gen.warmup Gen.Cold_solve ~seed @ Gen.interleaved Gen.Cold_solve ~seed ~n:200)
  in
  let a = problems 1 and b = problems 2 in
  Alcotest.(check bool) "rows were generated" true (List.length a > 200);
  Alcotest.(check int) "no problem repeats within a seed" (List.length a)
    (List.length (List.sort_uniq compare a));
  Alcotest.(check int) "no problem shared across seeds" 0
    (List.length (List.filter (fun p -> List.mem p b) a))

(* A cache far smaller than the server's, so that a short cold-solve
   replay evicts. *)
let cache_capacity = 256

let replay w ~n ~pass =
  let warmup = lines_of (Gen.warmup w ~seed:5) in
  let lines = lines_of (Gen.interleaved w ~seed:5 ~n) in
  let dir = Printf.sprintf "replay-test-%d-%d" (Unix.getpid ()) pass in
  Client.mkdir_p dir;
  Fun.protect ~finally:(fun () -> Client.rm_rf dir) @@ fun () ->
  let durable =
    match w with
    | Gen.Durable_telemetry -> Some (Filename.concat dir "wal", Filename.concat dir "snap")
    | Gen.Hot_plan | Gen.Cold_solve -> None
  in
  let r = Replay.run ~trace:true ~cache_capacity ?durable ~warmup lines in
  let bad, stats = Replay.mismatches ~cache_capacity ~warmup lines r in
  Alcotest.(check (list int)) (Gen.workload_name w ^ ": responses match the service") [] bad;
  Alcotest.(check (list (triple string string string)))
    (Gen.workload_name w ^ ": work counters match the service") []
    (Replay.counter_mismatches r stats);
  r

let test_counts_repeat w ~n () =
  let counts r = List.map (fun (m : Layers.metric) -> (m.Layers.name, m.Layers.value)) (Layers.counts r) in
  let a = replay w ~n ~pass:1 and b = replay w ~n ~pass:2 in
  Alcotest.(check (list (pair string (float 0.)))) "counts repeat exactly" (counts a) (counts b);
  let c = a.Replay.counts in
  match w with
  | Gen.Hot_plan -> Alcotest.(check int) "every query hits" 0 c.Replay.misses
  | Gen.Cold_solve ->
      Alcotest.(check int) "every query misses" 0 c.Replay.hits;
      Alcotest.(check bool) "free-scale solves evaluate Eq. 24" true (c.Replay.f_evals > 0);
      Alcotest.(check bool) "more inserts than the cache holds evict" true (a.Replay.evictions > 0)
  | Gen.Durable_telemetry ->
      Alcotest.(check bool) "mutating ops are logged" true (c.Replay.appends > 0);
      Alcotest.(check int) "one fsync per op at batch 1" c.Replay.appends c.Replay.fsyncs;
      Alcotest.(check bool) "a snapshot is cut" true (c.Replay.snapshots > 0)

(* A synthetic tree, times in ns:
     request [0, 100]
       a [10, 30]            (its child g [12, 15])
       b [20, 50]            overlaps a
       c [90, 120]           sticks out of request *)
let test_self_time () =
  let t = Spans.create () in
  let add name start stop parent =
    Spans.(
      let i = t.len in
      if i = Array.length t.name then invalid_arg "test span buffer";
      t.name.(i) <- id_of name;
      t.start.(i) <- start;
      t.stop.(i) <- stop;
      t.parent.(i) <- parent;
      t.len <- i + 1;
      i)
  in
  let root = add "request" 0 100 (-1) in
  let a = add "planner.key" 10 30 root in
  let _b = add "planner.lookup" 20 50 root in
  let _c = add "planner.insert" 90 120 root in
  let _g = add "solver.plan" 12 15 a in
  Alcotest.(check (array int)) "self times" [| 50; 17; 30; 30; 3 |] (Spans.self_times t);
  let ns, count = Spans.totals t in
  Alcotest.(check int) "total of a name" 17 ns.(Spans.id_of "planner.key");
  Alcotest.(check int) "spans of a name" 1 count.(Spans.id_of "planner.key");
  Alcotest.(check int) "unused name" 0 ns.(Spans.id_of "wal.append")

let test_recording_off () =
  let t = Spans.create ~on:false () in
  Spans.leave t (Spans.enter t (Spans.id_of "request"));
  Alcotest.(check int) "nothing recorded" 0 (Spans.length t)

let () =
  Alcotest.run "perfbench"
    [ ( "generator",
        [ Alcotest.test_case "same seed, same bytes" `Quick test_same_seed_same_bytes;
          Alcotest.test_case "cold-solve seeds are disjoint" `Quick test_cold_seeds_disjoint ] );
      ( "replay",
        [ Alcotest.test_case "hot-plan counts repeat" `Quick (test_counts_repeat Gen.Hot_plan ~n:200);
          Alcotest.test_case "cold-solve counts repeat" `Quick
            (test_counts_repeat Gen.Cold_solve ~n:100);
          Alcotest.test_case "durable-telemetry counts repeat" `Quick
            (test_counts_repeat Gen.Durable_telemetry ~n:300) ] );
      ( "spans",
        [ Alcotest.test_case "self time" `Quick test_self_time;
          Alcotest.test_case "recording off" `Quick test_recording_off ] ) ]
