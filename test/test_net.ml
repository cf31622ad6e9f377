(* Tests for ckpt_net: CRC32 vectors, the admission gate, newline
   framing over real descriptors, snapshot encode/decode round-trips and
   decoder robustness (truncation / corruption / future versions never
   raise), snapshot file rotation and fall-back, loopback serving
   byte-identical to the stdin path, deterministic backpressure and
   deadline rejections, drain semantics, the kill-and-restart
   byte-identity property, and a seeded network-chaos soak. *)

open Ckpt_model
open Ckpt_net
module Service = Ckpt_service.Service
module Protocol = Ckpt_service.Protocol
module Planner = Ckpt_service.Planner
module Sharded_cache = Ckpt_service.Sharded_cache
module Chaos = Ckpt_chaos.Chaos
module Json = Ckpt_json.Json
module Failure_spec = Ckpt_failures.Failure_spec
module Rate_estimator = Ckpt_adaptive.Rate_estimator
module Cost_estimator = Ckpt_adaptive.Cost_estimator

let mk_problem ?(te_days = 1e4) ?(kappa = 0.46) ?(n_star = 1e5) ?(alloc = 60.)
    ?(rates = "16-12-8-4") ?(levels = Level.fti_fusion) () =
  { Optimizer.te = te_days *. 86_400.;
    speedup = Speedup.quadratic ~kappa ~n_star;
    levels;
    alloc;
    spec = Failure_spec.of_string ~baseline_scale:n_star rates }

let problem_pool =
  Array.init 6 (fun i -> mk_problem ~te_days:(1e4 +. (500. *. float_of_int i)) ())

let plan_line i =
  Json.to_string
    (Json.Obj
       [ ("id", Json.Number (float_of_int i)); ("op", Json.String "plan");
         ("problem", Codec.problem_to_json problem_pool.(i mod Array.length problem_pool)) ])

let sweep_line i =
  Json.to_string
    (Json.Obj
       [ ("id", Json.Number (float_of_int i)); ("op", Json.String "sweep");
         ("problem", Codec.problem_to_json problem_pool.(i mod Array.length problem_pool));
         ("param", Json.String "scale");
         ("values", Json.float_array [| 8e4; 1e5; 1.2e5 |]) ])

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

let slow_line i =
  (* ~300+ ms of serialized work under the coordinator: the lever the
     backpressure / deadline / drain tests use to hold the server busy
     for a deterministic window. *)
  Json.to_string
    (Json.Obj
       [ ("id", Json.Number (float_of_int i)); ("op", Json.String "simulate-validate");
         ("problem", Codec.problem_to_json problem_pool.(0));
         ("replications", Json.Number 10_000.); ("seed", Json.Number 7.) ])

(* op index -> request line; the restart property samples streams from
   this table. *)
let line_of_op (kind, i) =
  match kind mod 5 with
  | 0 | 1 -> plan_line i
  | 2 -> sweep_line i
  | 3 -> observe_line i
  | 4 -> if i mod 2 = 0 then estimate_line i else replan_line i
  | _ -> assert false

(* ---------------- client + server helpers ---------------- *)

let with_service ?chaos f =
  let service = Service.create ?chaos ~workers:0 () in
  Fun.protect ~finally:(fun () -> Service.shutdown service) (fun () -> f service)

let with_server ?(config = Server.default_config) ?chaos f =
  with_service ?chaos @@ fun service ->
  let server = Server.start ~config service in
  Fun.protect ~finally:(fun () -> Server.stop server; Server.join server)
    (fun () -> f service server)

type client = { fd : Unix.file_descr; reader : Frame.reader }

let connect server =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, Server.port server));
  (* A generous receive timeout so a server bug fails the test instead
     of hanging runtest. *)
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 20.;
  { fd; reader = Frame.reader fd }

let close_client c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let send c line = Frame.write_line c.fd line

let recv c =
  match Frame.read_line c.reader with
  | Frame.Line l -> Some l
  | Frame.Eof | Frame.Timeout | Frame.Oversized -> None

let recv_exn c what =
  match recv c with
  | Some l -> l
  | None -> Alcotest.failf "%s: connection closed or timed out" what

let ask c line = send c line; recv c

let with_client server f =
  let c = connect server in
  Fun.protect ~finally:(fun () -> close_client c) (fun () -> f c)

let response_ok line =
  match Json.parse_result line with
  | Ok json -> Protocol.response_ok json
  | Error _ -> false

let tmp_counter = ref 0

let with_tmp_dir f =
  incr tmp_counter;
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "ckpt-net-test-%d-%d" (Unix.getpid ()) !tmp_counter)
  in
  let rec rm path =
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path
  in
  Fun.protect ~finally:(fun () -> if Sys.file_exists dir then rm dir) (fun () -> f dir)

(* ---------------- crc32 ---------------- *)

let test_crc32_vectors () =
  (* The IEEE 802.3 check value. *)
  Alcotest.(check int) "123456789" 0xCBF43926 (Crc32.string "123456789");
  Alcotest.(check int) "empty" 0 (Crc32.string "");
  Alcotest.(check int) "sub window matches whole"
    (Crc32.string "456")
    (Crc32.sub "123456789" ~pos:3 ~len:3);
  Alcotest.(check bool) "one bit changes the sum" false
    (Crc32.string "hello world" = Crc32.string "hello worle");
  Alcotest.(check (option int)) "of_hex reads %08x" (Some 0xCBF43926)
    (Crc32.of_hex (Printf.sprintf "%08x" 0xCBF43926));
  List.iter
    (fun s -> Alcotest.(check (option int)) ("of_hex refuses " ^ s) None (Crc32.of_hex s))
    [ "CBF43926"; "cbf4392"; "cbf439260"; "0_f43926"; "+bf43926"; "" ]

(* ---------------- gate ---------------- *)

let test_gate () =
  let g = Gate.create ~capacity:2 in
  Alcotest.(check int) "capacity" 2 (Gate.capacity g);
  Alcotest.(check bool) "slot 1" true (Gate.try_acquire g);
  Alcotest.(check bool) "slot 2" true (Gate.try_acquire g);
  Alcotest.(check bool) "full" false (Gate.try_acquire g);
  Alcotest.(check int) "rejection counted" 1 (Gate.rejected g);
  Alcotest.(check int) "in flight" 2 (Gate.in_flight g);
  Gate.release g;
  Alcotest.(check bool) "slot freed" true (Gate.try_acquire g);
  Gate.release g;
  Gate.release g;
  Alcotest.(check int) "peak" 2 (Gate.peak g);
  (match Gate.release g with
  | () -> Alcotest.fail "release with no slot held should raise"
  | exception Invalid_argument _ -> ());
  match Gate.create ~capacity:0 with
  | _ -> Alcotest.fail "capacity 0 should raise"
  | exception Invalid_argument _ -> ()

(* ---------------- framing ---------------- *)

let with_socketpair f =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      try Unix.close b with Unix.Unix_error _ -> ())
    (fun () -> f a b)

let write_all fd s =
  let b = Bytes.of_string s in
  let rec push off =
    if off < Bytes.length b then push (off + Unix.write fd b off (Bytes.length b - off))
  in
  push 0

let test_frame_reassembly () =
  with_socketpair @@ fun a b ->
  let r = Frame.reader b in
  (* Two lines split across three segments, with a CRLF ending. *)
  write_all a "{\"x\"";
  write_all a ":1}\n{\"y\":";
  write_all a "2}\r\n";
  Alcotest.(check (option string)) "line 1" (Some {|{"x":1}|})
    (match Frame.read_line r with Frame.Line l -> Some l | _ -> None);
  Alcotest.(check (option string)) "line 2, cr stripped" (Some {|{"y":2}|})
    (match Frame.read_line r with Frame.Line l -> Some l | _ -> None);
  (* A partial trailing line is dropped at EOF. *)
  (* Several lines arriving in one chunk are queued and returned in
     order. *)
  write_all a "a\nb\nc\n";
  Alcotest.(check bool) "queued a" true (Frame.read_line r = Frame.Line "a");
  Alcotest.(check bool) "queued b" true (Frame.read_line r = Frame.Line "b");
  Alcotest.(check bool) "queued c" true (Frame.read_line r = Frame.Line "c");
  (* A long line trickled in many small segments reassembles intact. *)
  let seg = String.make 100 'z' in
  for _ = 1 to 50 do write_all a seg done;
  write_all a "\n";
  Alcotest.(check bool) "trickled line reassembled" true
    (Frame.read_line r = Frame.Line (String.concat "" (List.init 50 (fun _ -> seg))));
  (* A partial trailing line is dropped at EOF. *)
  write_all a "half a request";
  Unix.close a;
  Alcotest.(check bool) "eof, partial dropped" true (Frame.read_line r = Frame.Eof)

let test_frame_oversized () =
  with_socketpair @@ fun a b ->
  let r = Frame.reader ~max_line_bytes:8 b in
  write_all a "0123456789abcdef";
  Alcotest.(check bool) "oversized" true (Frame.read_line r = Frame.Oversized)

let test_frame_write_read () =
  with_socketpair @@ fun a b ->
  let r = Frame.reader b in
  Frame.write_line a "one";
  Frame.write_line a "two";
  Alcotest.(check bool) "one" true (Frame.read_line r = Frame.Line "one");
  Alcotest.(check bool) "two" true (Frame.read_line r = Frame.Line "two")

(* ---------------- snapshot round-trip ---------------- *)

(* Drive a service into a nontrivial state: solved plans in the cache
   and a live telemetry session with non-integer Welford state. *)
let warmed_service_state service =
  List.iter
    (fun line -> ignore (Service.handle_line service line))
    [ plan_line 0; plan_line 1; plan_line 2; observe_line 0; observe_line 1;
      estimate_line 0 ];
  Snapshot.of_service ~seq:6 service

let test_snapshot_roundtrip () =
  with_service @@ fun service ->
  let state = warmed_service_state service in
  Alcotest.(check bool) "cache captured" true (List.length state.Snapshot.cache >= 3);
  Alcotest.(check bool) "session captured" true (state.Snapshot.session <> None);
  let image = Snapshot.encode state in
  match Snapshot.decode image with
  | Error m -> Alcotest.failf "decode failed: %s" m
  | Ok state' ->
      Alcotest.(check int) "seq" state.Snapshot.seq state'.Snapshot.seq;
      (* Bytes are the equality that matters: the restart property
         compares responses, which are serialized from this state. *)
      Alcotest.(check string) "re-encode is byte-identical" image (Snapshot.encode state')

let test_snapshot_install_resumes () =
  with_service @@ fun original ->
  let state = warmed_service_state original in
  let probe = [ plan_line 1; estimate_line 9; replan_line 2 ] in
  let expected =
    List.map (fun l -> Json.to_string (Service.handle_line original l)) probe
  in
  with_service @@ fun restored ->
  let installed = Snapshot.install state restored in
  Alcotest.(check int) "plans installed" (List.length state.Snapshot.cache) installed;
  let got = List.map (fun l -> Json.to_string (Service.handle_line restored l)) probe in
  Alcotest.(check (list string)) "restored service answers byte-identically" expected got;
  let cached_again = Json.to_string (Service.handle_line restored (plan_line 1)) in
  Alcotest.(check bool) "previously-solved plan is a cache hit" true
    (String.length cached_again > 0
    && Json.member "cached" (Json.parse cached_again) = Some (Json.Bool true))

(* ---------------- snapshot decoder robustness ---------------- *)

let sample_image =
  lazy
    (with_service @@ fun service ->
     Snapshot.encode (warmed_service_state service))

let decode_never_raises s =
  match Snapshot.decode s with
  | Ok _ -> true
  | Error _ -> true
  | exception e ->
      Alcotest.failf "decode raised %s on %S" (Printexc.to_string e)
        (String.sub s 0 (min 60 (String.length s)))

let test_snapshot_truncation () =
  let image = Lazy.force sample_image in
  let n = String.length image in
  let lens = List.init 64 (fun i -> i * n / 64) in
  List.iter
    (fun len ->
      let prefix = String.sub image 0 len in
      ignore (decode_never_raises prefix);
      match Snapshot.decode prefix with
      | Ok _ -> Alcotest.failf "truncation to %d bytes decoded Ok" len
      | Error _ -> ())
    lens

let test_snapshot_corruption =
  QCheck.Test.make ~count:300 ~name:"snapshot decode survives any single-byte corruption"
    QCheck.(pair (int_range 0 100_000) (int_range 0 255))
    (fun (pos, byte) ->
      let image = Lazy.force sample_image in
      let pos = pos mod String.length image in
      let b = Bytes.of_string image in
      QCheck.assume (Bytes.get b pos <> Char.chr byte);
      Bytes.set b pos (Char.chr byte);
      let mutated = Bytes.to_string b in
      ignore (decode_never_raises mutated);
      (* The CRC (payload) and header checks (framing) catch every
         single-byte change. *)
      Result.is_error (Snapshot.decode mutated))

(* The random property above lands in the short header only rarely, so
   every single-byte change to it is tried here: none may decode, not even
   an upper-cased digit of the hex checksum. *)
let test_snapshot_header_corruption () =
  let image = Lazy.force sample_image in
  let header_end = String.index image '\n' in
  for pos = 0 to header_end do
    for byte = 0 to 255 do
      if image.[pos] <> Char.chr byte then begin
        let b = Bytes.of_string image in
        Bytes.set b pos (Char.chr byte);
        let mutated = Bytes.to_string b in
        ignore (decode_never_raises mutated);
        if Result.is_ok (Snapshot.decode mutated) then
          Alcotest.failf "header byte %d changed %C -> %C still decodes" pos image.[pos]
            (Char.chr byte)
      end
    done
  done

let test_snapshot_future_version () =
  let image = Lazy.force sample_image in
  let nl = String.index image '\n' in
  let payload = String.sub image (nl + 1) (String.length image - nl - 1) in
  let future =
    Printf.sprintf "CKPTSNAP %d %08x %d\n%s" 99 (Crc32.string payload)
      (String.length payload) payload
  in
  let contains ~needle hay =
    let nh = String.length hay and nn = String.length needle in
    let rec scan i = i + nn <= nh && (String.sub hay i nn = needle || scan (i + 1)) in
    scan 0
  in
  match Snapshot.decode future with
  | Ok _ -> Alcotest.fail "a future version must not decode"
  | Error m ->
      Alcotest.(check bool) "error names the version gap" true (contains ~needle:"newer" m)

let test_snapshot_garbage_fuzz =
  QCheck.Test.make ~count:300 ~name:"snapshot decode survives arbitrary bytes"
    QCheck.(string_gen_of_size Gen.(int_range 0 200) Gen.char)
    (fun s -> decode_never_raises s && decode_never_raises ("CKPTSNAP " ^ s))

(* ---------------- snapshot files ---------------- *)

let test_snapshot_files_rotate_and_fall_back () =
  with_tmp_dir @@ fun dir ->
  with_service @@ fun service ->
  let save seq =
    match Snapshot.save ~keep:3 ~dir (Snapshot.of_service ~seq service) with
    | Ok path -> path
    | Error m -> Alcotest.failf "save %d failed: %s" seq m
  in
  ignore (Service.handle_line service (plan_line 0));
  let paths = List.map save [ 1; 2; 3; 4; 5 ] in
  let files = Sys.readdir dir |> Array.to_list |> List.sort compare in
  Alcotest.(check int) "pruned to keep=3" 3 (List.length files);
  Alcotest.(check bool) "tmp files cleaned up" true
    (List.for_all (fun f -> Filename.check_suffix f ".ckpt") files);
  (match Snapshot.load_latest ~dir () with
  | Some s -> Alcotest.(check int) "newest wins" 5 s.Snapshot.seq
  | None -> Alcotest.fail "load_latest found nothing");
  (* Corrupt the newest: load falls back to the next one and logs. *)
  let newest = List.nth paths (List.length paths - 1) in
  let oc = open_out newest in
  output_string oc "CKPTSNAP corrupt beyond recognition\n";
  close_out oc;
  let logged = ref [] in
  (match Snapshot.load_latest ~log:(fun m -> logged := m :: !logged) ~dir () with
  | Some s -> Alcotest.(check int) "fell back to seq 4" 4 s.Snapshot.seq
  | None -> Alcotest.fail "fall-back found nothing");
  Alcotest.(check bool) "fall-back logged" true (!logged <> []);
  (* An empty or missing directory is a cold start, not an error. *)
  Alcotest.(check bool) "missing dir is a cold start" true
    (Snapshot.load_latest ~dir:(Filename.concat dir "nope") () = None)

(* ---------------- loopback serving ---------------- *)

let test_loopback_byte_identical_to_stdin_path () =
  (* The same request stream through a socket and through a second,
     identically-configured service directly: responses must match byte
     for byte (stats excluded: its payload is process-local timing). *)
  let stream =
    [ plan_line 0; sweep_line 1; observe_line 0; estimate_line 3; plan_line 0;
      replan_line 2; "not json at all"; plan_line 4 ]
  in
  with_service @@ fun reference ->
  let expected = List.map (fun l -> Json.to_string (Service.handle_line reference l)) stream in
  with_server @@ fun _service server ->
  with_client server @@ fun c ->
  let got = List.map (fun l -> send c l; recv_exn c "loopback") stream in
  Alcotest.(check (list string)) "byte-identical responses" expected got;
  Alcotest.(check int) "request counter" (List.length stream) (Server.requests server);
  Alcotest.(check int) "connection counter" 1 (Server.connections server)

let test_op_counts () =
  (* The per-op routing counters: every answered line is bucketed by its
     envelope's "op" (parsed once, reused for routing), unreadable
     envelopes land in "invalid", and in-band shutdown is counted even
     though it never reaches the service. *)
  with_server @@ fun _service server ->
  Alcotest.(check (list (pair string int))) "fresh server" []
    (Server.op_counts server);
  ( with_client server @@ fun c ->
    List.iter
      (fun l -> send c l; ignore (recv_exn c "op-counts"))
      [ plan_line 0; plan_line 1; sweep_line 2; observe_line 0;
        estimate_line 3; "not json at all"; "{\"problem\": {}}" ] );
  Alcotest.(check (list (pair string int))) "buckets sorted by op"
    [ ("estimate", 1); ("invalid", 2); ("observe", 1); ("plan", 2); ("sweep", 1) ]
    (Server.op_counts server);
  (* In-band shutdown is acknowledged and counted. *)
  ( with_client server @@ fun c ->
    send c "{\"op\": \"shutdown\", \"id\": 9}";
    ignore (recv_exn c "shutdown ack") );
  Server.join server;
  Alcotest.(check (option int)) "shutdown counted" (Some 1)
    (List.assoc_opt "shutdown" (Server.op_counts server))

(* Op names are the client's to choose, but the counter table is not
   theirs to grow: a thousand made-up names and one ~100 KiB name share
   the single "unknown" bucket. *)
let test_op_counts_closed_set () =
  with_server @@ fun _service server ->
  ( with_client server @@ fun c ->
    let unknown name =
      send c (Printf.sprintf {|{"id": 1, "op": "%s"}|} name);
      if response_ok (recv_exn c "unknown op") then
        Alcotest.failf "op %S answered ok" (String.sub name 0 (min 16 (String.length name)))
    in
    for i = 1 to 1_000 do
      unknown (Printf.sprintf "zzz-%d" i)
    done;
    unknown (String.make (100 * 1024) 'z');
    send c (plan_line 0);
    ignore (recv_exn c "plan") );
  Alcotest.(check (list (pair string int))) "one unknown bucket"
    [ ("plan", 1); ("unknown", 1_001) ]
    (Server.op_counts server)

let test_mangled_lines_reparsed () =
  (* The server parses each line once and hands the envelope to the
     service, which must not answer a line its chaos mangled from that
     envelope: a twin service with the same line-mangling chaos, fed the
     same raw lines directly, answers byte for byte the same. *)
  let spec =
    { Chaos.disabled with Chaos.seed = 77; line_corrupt = 0.25; line_truncate = 0.25 }
  in
  let stream =
    List.concat
      (List.init 8 (fun i ->
           [ plan_line i; sweep_line i; observe_line i; estimate_line i; replan_line i;
             "not json at all" ]))
  in
  let twin_chaos = Chaos.create spec in
  with_service ~chaos:twin_chaos @@ fun twin ->
  (* The twin parses each line only after its chaos had its turn. *)
  let expected = List.map (fun l -> Json.to_string (Service.handle_line twin l)) stream in
  with_server ~chaos:(Chaos.create spec) @@ fun _service server ->
  with_client server @@ fun c ->
  let got = List.map (fun l -> send c l; recv_exn c "mangled") stream in
  Alcotest.(check (list string)) "byte-identical to the twin service" expected got;
  let mangled =
    List.length (List.filter (fun r -> r.Chaos.site = Chaos.Line) (Chaos.records twin_chaos))
  in
  Alcotest.(check bool)
    (Printf.sprintf "lines were mangled (%d of %d)" mangled (List.length stream))
    true
    (mangled > 0 && mangled < List.length stream)

let test_loopback_blank_and_oversized_lines () =
  let config = { Server.default_config with Server.max_line_bytes = 2048 } in
  with_server ~config @@ fun _service server ->
  with_client server @@ fun c ->
  (* Blank lines are skipped, not answered. *)
  send c "";
  send c "   ";
  let answered = ask c (estimate_line 1) in
  Alcotest.(check bool) "blank lines skipped, next request answered" true
    (match answered with
    | Some l -> Json.member "id" (Json.parse l) = Some (Json.Number 1.)
    | None -> false);
  (* An oversized line gets a structured invalid-request answer, then
     the connection is closed (the reader's framing state is gone). *)
  send c (String.make 4096 'x');
  (match recv c with
  | None -> Alcotest.fail "oversized line: no response"
  | Some l ->
      let json = Json.parse l in
      Alcotest.(check bool) "oversized answered not ok" false (Protocol.response_ok json);
      Alcotest.(check bool) "code invalid-request" true
        (match Json.member "error" json with
        | Some e -> Json.string_field "code" e = Some "invalid-request"
        | None -> false));
  Alcotest.(check bool) "connection closed after oversized line" true
    (try ask c (estimate_line 2) = None with Unix.Unix_error _ -> true)

(* ---------------- backpressure and deadlines ---------------- *)

let test_overloaded_rejection () =
  let config = { Server.default_config with Server.max_inflight = 1 } in
  with_server ~config @@ fun _service server ->
  with_client server @@ fun a ->
  with_client server @@ fun b ->
  (* A occupies the single admission slot for ~300 ms; B's request must
     be turned away immediately with the structured overload error. *)
  send a (slow_line 100);
  Thread.delay 0.1;
  let t0 = Unix.gettimeofday () in
  send b (plan_line 0);
  let rb = recv_exn b "overloaded response" in
  let waited = Unix.gettimeofday () -. t0 in
  let json = Json.parse rb in
  Alcotest.(check bool) "rejected" false (Protocol.response_ok json);
  Alcotest.(check bool) "code overloaded" true
    (match Json.member "error" json with
    | Some e -> Json.string_field "code" e = Some "overloaded"
    | None -> false);
  Alcotest.(check bool) "id echoed on rejection" true
    (Json.member "id" json = Some (Json.Number 0.));
  Alcotest.(check bool) "rejected without waiting for the slow request" true (waited < 0.25);
  Alcotest.(check bool) "rejection counted" true (Server.rejections server >= 1);
  let ra = recv_exn a "slow response" in
  Alcotest.(check bool) "the occupying request still completes" true (response_ok ra)

let test_deadline_exceeded () =
  let config =
    { Server.default_config with Server.max_inflight = 8; request_deadline_ms = 50. }
  in
  with_server ~config @@ fun _service server ->
  with_client server @@ fun a ->
  with_client server @@ fun b ->
  (* A holds the coordinator for ~300 ms; B gets an admission slot but
     cannot reach the coordinator inside its 50 ms deadline. *)
  send a (slow_line 100);
  Thread.delay 0.1;
  send b (plan_line 0);
  let rb = recv_exn b "deadline response" in
  let json = Json.parse rb in
  Alcotest.(check bool) "not ok" false (Protocol.response_ok json);
  Alcotest.(check bool) "code deadline-exceeded" true
    (match Json.member "error" json with
    | Some e -> Json.string_field "code" e = Some "deadline-exceeded"
    | None -> false);
  let ra = recv_exn a "slow response" in
  Alcotest.(check bool) "the busy request still completes" true (response_ok ra)

(* ---------------- drain semantics ---------------- *)

let test_drain_completes_in_flight () =
  with_server @@ fun service server ->
  let a = connect server in
  let b = connect server in
  let c = connect server in
  Fun.protect
    ~finally:(fun () -> List.iter close_client [ a; b; c ])
  @@ fun () ->
  (* A is executing (slow), B is queued behind it, when C asks for
     shutdown: both in-flight requests must still be answered. *)
  send a (slow_line 1);
  Thread.delay 0.05;
  send b (plan_line 2);
  Thread.delay 0.05;
  let ack = ask c {|{"id":"bye","op":"shutdown"}|} in
  Alcotest.(check bool) "shutdown acknowledged" true
    (match ack with
    | Some l -> Json.member "draining" (Json.parse l) = Some (Json.Bool true)
    | None -> false);
  Alcotest.(check bool) "draining flag" true (Server.draining server);
  let ra = recv_exn a "in-flight A" in
  let rb = recv_exn b "in-flight B" in
  Alcotest.(check bool) "A answered during drain" true (response_ok ra);
  Alcotest.(check bool) "B answered during drain" true (response_ok rb);
  (* No new connections: either the connect is refused outright or the
     accepted-then-draining socket closes without serving a byte. *)
  (match connect server with
  | d ->
      let served = Fun.protect ~finally:(fun () -> close_client d) (fun () ->
          ask d (plan_line 0))
      in
      Alcotest.(check bool) "no service after drain began" true (served = None)
  | exception Unix.Unix_error _ -> ());
  Server.join server;
  (* Post-drain: every connection thread joined, the service itself is
     still alive (the server does not own it) and shuts down cleanly. *)
  Alcotest.(check bool) "connections were accepted" true (Server.connections server >= 3);
  let direct = Json.to_string (Service.handle_line service (plan_line 3)) in
  Alcotest.(check bool) "service usable after server drain" true (response_ok direct)

(* ---------------- kill-and-restart byte-identity ---------------- *)

let serve_stream ?config stream f =
  with_server ?config @@ fun _service server ->
  let responses =
    with_client server @@ fun c ->
    List.map (fun l -> send c l; recv_exn c "stream") stream
  in
  f server responses

let test_restart_byte_identity =
  QCheck.Test.make ~count:8 ~name:"warm restart answers the stream tail byte-identically"
    QCheck.(pair (list_of_size Gen.(int_range 6 18) (pair small_nat small_nat))
              (int_range 1 5))
    (fun (ops, cut_at) ->
      QCheck.assume (ops <> []);
      let stream = List.map line_of_op ops in
      let cut = min cut_at (List.length stream - 1) in
      let prefix = List.filteri (fun i _ -> i < cut) stream in
      let tail = List.filteri (fun i _ -> i >= cut) stream in
      (* The reference: one uninterrupted server over the whole stream. *)
      let expected_tail =
        serve_stream stream (fun _ responses ->
            List.filteri (fun i _ -> i >= cut) responses)
      in
      with_tmp_dir @@ fun dir ->
      (* First life: serve the prefix, snapshotting after every request,
         then die (the drain also cuts a final snapshot — equivalent to
         the per-request one at the same seq). *)
      let config =
        { Server.default_config with
          Server.snapshot_dir = Some dir; snapshot_interval = 1 }
      in
      serve_stream ~config prefix (fun _ _ -> ());
      (* Second life: a fresh service warm-restarted from the snapshot
         must answer the tail exactly as the uninterrupted server did. *)
      serve_stream ~config tail (fun _server got_tail -> got_tail = expected_tail))

let test_restart_cache_hit () =
  with_tmp_dir @@ fun dir ->
  let config =
    { Server.default_config with Server.snapshot_dir = Some dir; snapshot_interval = 1 }
  in
  (* First life solves two problems cold. *)
  serve_stream ~config [ plan_line 0; plan_line 1 ] (fun _ responses ->
      List.iter
        (fun r ->
          Alcotest.(check bool) "first life solves cold" true
            (Json.member "cached" (Json.parse r) = Some (Json.Bool false)))
        responses);
  (* Second life answers the same problems from the restored cache. *)
  serve_stream ~config [ plan_line 0; plan_line 1 ] (fun server responses ->
      Alcotest.(check int) "plans restored" 2 (Server.restored server);
      List.iter
        (fun r ->
          Alcotest.(check bool) "restart serves from cache" true
            (Json.member "cached" (Json.parse r) = Some (Json.Bool true)))
        responses)

let test_restart_seq_monotonic () =
  (* Regression: a restarted server must number its snapshots past the
     restored seq.  Were the counter reset to zero, the second life's
     snapshot-1 would sort below the first life's snapshot-2, pruning
     would keep the stale file, and a third life would restore
     pre-restart state — losing the second life's progress. *)
  with_tmp_dir @@ fun dir ->
  let config =
    { Server.default_config with Server.snapshot_dir = Some dir; snapshot_interval = 1 }
  in
  let latest_seq life =
    match Snapshot.load_latest ~dir () with
    | Some s -> s.Snapshot.seq
    | None -> Alcotest.failf "life %d left no loadable snapshot" life
  in
  (* First life: two requests. *)
  serve_stream ~config [ plan_line 0; plan_line 1 ] (fun _ _ -> ());
  Alcotest.(check int) "first life snapshots its request count" 2 (latest_seq 1);
  (* Second life: one more request; its snapshots must continue the
     sequence, not restart it. *)
  serve_stream ~config [ plan_line 2 ] (fun server _ ->
      Alcotest.(check int) "second life warm-restarts" 2 (Server.restored server));
  Alcotest.(check bool) "second life seq continues past the first" true (latest_seq 2 > 2);
  (* Third life: the problem solved in the second life is still cached,
     i.e. the snapshot recording it survived pruning and won the
     newest-first load. *)
  serve_stream ~config [ plan_line 2 ] (fun _ responses ->
      List.iter
        (fun r ->
          Alcotest.(check bool) "second life's progress survives a third restart" true
            (Json.member "cached" (Json.parse r) = Some (Json.Bool true)))
        responses)

(* ---------------- a pooled server under concurrent load ---------------- *)

(* One run at [i * 1e4] s as SCR-style log lines, for a [calibrate] on
   the same timeline as [observe_line i]. *)
let calibrate_line i =
  let t0 = float_of_int i *. 1e4 and level k = 1 + ((i + k) mod 4) in
  let log =
    [ Printf.sprintf "t=%.0f event=START scale=100000 levels=4" t0;
      Printf.sprintf "t=%.0f event=COMPUTE secs=3000 productive=2900" (t0 +. 3000.);
      Printf.sprintf "t=%.0f event=CHECKPOINT secs=%d level=%d" (t0 +. 3030.)
        (25 + (i mod 3)) (level 0);
      Printf.sprintf "t=%.0f event=FAILURE level=%d" (t0 +. 3500.) (level 1);
      Printf.sprintf "t=%.0f event=FETCH secs=40 level=%d" (t0 +. 3540.) (level 1);
      Printf.sprintf "t=%.0f event=REBUILD secs=20" (t0 +. 3560.);
      Printf.sprintf "t=%.0f event=COMPUTE secs=3000 productive=2900" (t0 +. 6560.);
      Printf.sprintf "t=%.0f event=END complete=1" (t0 +. 6560.) ]
  in
  Json.to_string
    (Json.Obj
       [ ("id", Json.Number (float_of_int i)); ("op", Json.String "calibrate");
         ("problem", Codec.problem_to_json problem_pool.(i mod Array.length problem_pool));
         ("log", Json.List (List.map (fun l -> Json.String l) log));
         ("prior_strength", Json.Number 1e10) ])

(* Read-only traffic on problems of connection [conn]'s own: plan,
   20-problem batch-plan and 20-point te-sweep lines, each on problems
   not asked for before, so every batch and sweep has more uncached rows
   than one solver segment (16) and fans out over the pool.  The te
   ranges, sweeps included, of different connections are disjoint, so a
   connection's answers cannot depend on the others' cache traffic. *)
let reader_lines conn n =
  let fresh = ref 0 in
  let next () =
    incr fresh;
    mk_problem ~te_days:(2e4 +. (1e4 *. float_of_int conn) +. float_of_int !fresh) ()
  in
  let pjson p = Codec.problem_to_json p in
  List.init n (fun k ->
      let id = ("id", Json.Number (float_of_int k)) in
      Json.to_string
        (match k mod 3 with
        | 0 -> Json.Obj [ id; ("op", Json.String "plan"); ("problem", pjson (next ())) ]
        | 1 ->
            Json.Obj
              [ id; ("op", Json.String "batch-plan");
                ("problems", Json.List (List.init 20 (fun _ -> pjson (next ())))) ]
        | _ ->
            let p = next () in
            Json.Obj
              [ id; ("op", Json.String "sweep"); ("problem", pjson p);
                ("param", Json.String "te");
                ( "values",
                  Json.float_array
                    (Array.init 20 (fun j ->
                         p.Optimizer.te *. (0.9 +. (0.01 *. float_of_int j)))) ) ]))

(* The stateful connection: observe, calibrate and estimate in turn on
   one monotone timeline. *)
let telemetry_lines n =
  List.init n (fun k ->
      match k mod 3 with
      | 0 -> observe_line k
      | 1 -> calibrate_line k
      | _ -> estimate_line k)

(* A server whose service fans solves out over a two-domain pool, with
   snapshots on, under four concurrent closed-loop connections: three
   readers and one telemetry writer, 300 lines in all.  Every reply is
   ok, each connection's replies are byte-identical to those of an
   unpooled service that answers its lines alone, and the drain leaves a
   snapshot behind. *)
let test_pooled_server_concurrent_load () =
  let streams =
    [ reader_lines 0 80; reader_lines 1 80; reader_lines 2 80; telemetry_lines 60 ]
  in
  let expected =
    List.map
      (fun lines ->
        let reference = Service.create ~workers:0 () in
        Fun.protect ~finally:(fun () -> Service.shutdown reference) (fun () ->
            List.map (Service.handle_line_string reference) lines))
      streams
  in
  with_tmp_dir @@ fun dir ->
  let service = Service.create ~workers:2 () in
  Fun.protect ~finally:(fun () -> Service.shutdown service) @@ fun () ->
  let config =
    { Server.default_config with Server.snapshot_dir = Some dir; snapshot_interval = 64 }
  in
  let server = Server.start ~config service in
  let got =
    Fun.protect ~finally:(fun () -> Server.stop server; Server.join server) @@ fun () ->
    let results = Array.make (List.length streams) (Error "not run") in
    let drive i lines =
      results.(i) <-
        (try
           with_client server @@ fun c ->
           Ok (List.map (fun l -> match ask c l with Some r -> r | None -> "<no reply>") lines)
         with e -> Error (Printexc.to_string e))
    in
    List.mapi (fun i lines -> Thread.create (drive i) lines) streams
    |> List.iter Thread.join;
    Alcotest.(check int) "every line answered" 300 (Server.requests server);
    Alcotest.(check int) "four connections" 4 (Server.connections server);
    Array.to_list results
  in
  List.iteri
    (fun i (want, got) ->
      match got with
      | Error m -> Alcotest.failf "connection %d: %s" i m
      | Ok got ->
          List.iteri
            (fun k (want, got) ->
              if not (response_ok got) then
                Alcotest.failf "connection %d line %d not ok: %s" i k got;
              if got <> want then
                Alcotest.failf
                  "connection %d line %d differs from an unpooled service:\n%s\nvs\n%s"
                  i k got want)
            (List.combine want got))
    (List.combine expected got);
  let snapshots =
    if not (Sys.file_exists dir) then []
    else
      Sys.readdir dir |> Array.to_list
      |> List.filter (fun f -> Filename.check_suffix f ".ckpt")
  in
  Alcotest.(check bool)
    (Printf.sprintf "snapshots written (%d)" (List.length snapshots))
    true (snapshots <> [])

(* ---------------- network chaos soak ---------------- *)

let test_net_chaos_soak () =
  let spec = Chaos.spec ~seed:2014 ~rate:0.1 () in
  let chaos = Chaos.create spec in
  (* A mirror instance predicts the schedule: the decision is a pure
     function of (seed, site, index), so the test knows exactly which
     accept indices are faulted and what the healthy ones must get. *)
  let oracle = Chaos.create spec in
  let config = { Server.default_config with Server.chaos = Some chaos } in
  with_service @@ fun reference ->
  (* The reference service answers the same plan twice: cold solve, then
     cache hit.  The server's shared cache behaves identically, so the
     first plan_line 0 actually *answered* over the soak (whichever
     connection it lands on) must match the cold response and every
     later one the cached response. *)
  let cold_response = Json.to_string (Service.handle_line reference (plan_line 0)) in
  let cached_response = Json.to_string (Service.handle_line reference (plan_line 0)) in
  let cold = ref true in
  let expect_plan () =
    if !cold then begin cold := false; cold_response end else cached_response
  in
  with_server ~config @@ fun _service server ->
  let connections = 40 in
  let faults = ref 0 in
  for index = 0 to connections - 1 do
    let expected_fault = Chaos.net_fault oracle ~index in
    if expected_fault <> None then incr faults;
    let c = connect server in
    Fun.protect ~finally:(fun () -> close_client c) @@ fun () ->
    match expected_fault with
    | Some Chaos.Drop ->
        (* Closed before serving a byte: the first exchange fails. *)
        let got = try ask c (plan_line 0) with Unix.Unix_error _ -> None in
        Alcotest.(check bool)
          (Printf.sprintf "conn %d dropped" index)
          true (got = None)
    | Some Chaos.Garbage ->
        (* The first line is answered as a parse error; the connection
           then serves normally. *)
        (match try ask c (plan_line 0) with Unix.Unix_error _ -> None with
        | Some first ->
            Alcotest.(check bool)
              (Printf.sprintf "conn %d garbage first line rejected" index)
              false (response_ok first)
        | None -> Alcotest.failf "conn %d: garbage line not answered" index);
        (match try ask c (plan_line 0) with Unix.Unix_error _ -> None with
        | Some second ->
            Alcotest.(check string)
              (Printf.sprintf "conn %d recovers after garbage" index)
              (expect_plan ()) second
        | None -> Alcotest.failf "conn %d: second line not answered" index)
    | Some (Chaos.Stall _) ->
        (* Slowed but correct. *)
        (match try ask c (plan_line 0) with Unix.Unix_error _ -> None with
        | Some got ->
            Alcotest.(check string)
              (Printf.sprintf "conn %d slow but correct" index)
              (expect_plan ()) got
        | None -> Alcotest.failf "conn %d: stalled connection never answered" index)
    | Some Chaos.Half_close ->
        (* The first response arrives; after that the server's write
           side is gone, so the next exchange yields nothing. *)
        (match try ask c (plan_line 0) with Unix.Unix_error _ -> None with
        | Some got ->
            Alcotest.(check string)
              (Printf.sprintf "conn %d first response before half-close" index)
              (expect_plan ()) got
        | None -> Alcotest.failf "conn %d: no response before half-close" index);
        let got = try ask c (plan_line 0) with Unix.Unix_error _ -> None in
        Alcotest.(check bool)
          (Printf.sprintf "conn %d half-closed afterwards" index)
          true (got = None)
    | Some _ -> Alcotest.failf "conn %d: non-net fault decided at the net site" index
    | None -> (
        (* Healthy connections get full, byte-identical service: the
           soak invariant. *)
        match try ask c (plan_line 0) with Unix.Unix_error _ -> None with
        | Some got ->
            Alcotest.(check string)
              (Printf.sprintf "conn %d healthy and byte-identical" index)
              (expect_plan ()) got
        | None -> Alcotest.failf "conn %d: healthy connection not answered" index)
  done;
  Alcotest.(check bool) "the soak actually injected faults" true (!faults > 0);
  Alcotest.(check bool) "and spared healthy connections" true (!faults < connections)

(* ---------------- config validation ---------------- *)

let test_config_validation () =
  let check name config =
    with_service @@ fun service ->
    match Server.start ~config service with
    | server ->
        Server.stop server;
        Server.join server;
        Alcotest.failf "%s: expected Invalid_argument" name
    | exception Invalid_argument _ -> ()
  in
  check "max_inflight 0" { Server.default_config with Server.max_inflight = 0 };
  check "negative deadline" { Server.default_config with Server.request_deadline_ms = -1. };
  check "nan idle timeout" { Server.default_config with Server.idle_timeout_s = Float.nan };
  check "zero line bound" { Server.default_config with Server.max_line_bytes = 0 };
  check "snapshot keep 0" { Server.default_config with Server.snapshot_keep = 0 }

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "ckpt_net"
    [ ("crc32", [ Alcotest.test_case "vectors" `Quick test_crc32_vectors ]);
      ("gate", [ Alcotest.test_case "semantics" `Quick test_gate ]);
      ( "frame",
        [ Alcotest.test_case "reassembly" `Quick test_frame_reassembly;
          Alcotest.test_case "oversized" `Quick test_frame_oversized;
          Alcotest.test_case "write-read" `Quick test_frame_write_read ] );
      ( "snapshot",
        [ Alcotest.test_case "roundtrip" `Quick test_snapshot_roundtrip;
          Alcotest.test_case "install-resumes" `Quick test_snapshot_install_resumes;
          Alcotest.test_case "truncation" `Quick test_snapshot_truncation;
          qc test_snapshot_corruption;
          Alcotest.test_case "future-version" `Quick test_snapshot_future_version;
          qc test_snapshot_garbage_fuzz;
          Alcotest.test_case "files-rotate-fall-back" `Quick
            test_snapshot_files_rotate_and_fall_back;
          Alcotest.test_case "header-corruption" `Quick test_snapshot_header_corruption ] );
      ( "server",
        [ Alcotest.test_case "loopback-byte-identical" `Quick
            test_loopback_byte_identical_to_stdin_path;
          Alcotest.test_case "op-counts" `Quick test_op_counts;
          Alcotest.test_case "op-counts-closed-set" `Quick test_op_counts_closed_set;
          Alcotest.test_case "mangled-lines-reparsed" `Quick test_mangled_lines_reparsed;
          Alcotest.test_case "blank-and-oversized" `Quick
            test_loopback_blank_and_oversized_lines;
          Alcotest.test_case "overloaded" `Quick test_overloaded_rejection;
          Alcotest.test_case "deadline" `Quick test_deadline_exceeded;
          Alcotest.test_case "drain" `Quick test_drain_completes_in_flight;
          Alcotest.test_case "config-validation" `Quick test_config_validation;
          Alcotest.test_case "pooled-concurrent-load" `Quick
            test_pooled_server_concurrent_load ] );
      ( "restart",
        [ qc test_restart_byte_identity;
          Alcotest.test_case "cache-hit" `Quick test_restart_cache_hit;
          Alcotest.test_case "seq-monotonic" `Quick test_restart_seq_monotonic ] );
      ("chaos", [ Alcotest.test_case "net-soak" `Quick test_net_chaos_soak ]) ]
