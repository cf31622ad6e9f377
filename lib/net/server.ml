module Json = Ckpt_json.Json
module Service = Ckpt_service.Service
module Protocol = Ckpt_service.Protocol
module Wire = Ckpt_service.Wire
module Chaos = Ckpt_chaos.Chaos

type config = {
  host : string;
  port : int;
  backlog : int;
  max_inflight : int;
  request_deadline_ms : float;
  idle_timeout_s : float;
  max_line_bytes : int;
  snapshot_dir : string option;
  snapshot_interval : int;
  snapshot_keep : int;
  wal_dir : string option;
  fsync_batch : int;
  fsync_interval_ms : float;
  chaos : Chaos.t option;
  durability_inject : Wal.fault_hook option;
  durability_auto : Json.t option;
}

let default_config =
  { host = "127.0.0.1";
    port = 0;
    backlog = 64;
    max_inflight = 64;
    request_deadline_ms = 30_000.;
    idle_timeout_s = 30.;
    max_line_bytes = 1 lsl 20;
    snapshot_dir = None;
    snapshot_interval = 256;
    snapshot_keep = 4;
    wal_dir = None;
    fsync_batch = 1;
    fsync_interval_ms = 50.;
    chaos = None;
    durability_inject = None;
    durability_auto = None }

type t = {
  config : config;
  service : Service.t;
  listen_fd : Unix.file_descr;
  port : int;
  gate : Gate.t;
  (* Serializes every Service call and snapshot cut: the service's
     stateful ops assume a single coordinator. *)
  coordinator : Mutex.t;
  state_lock : Mutex.t;  (* the mutable counters below *)
  mutable accept_thread : Thread.t option;
  mutable conn_threads : Thread.t list;
  (* Thread ids of connection threads that have finished: the accept
     loop joins and drops these opportunistically so [conn_threads]
     stays bounded by the number of *live* connections. *)
  finished : (int, unit) Hashtbl.t;
  mutable conn_seq : int;
  mutable requests : int;  (* answered by this incarnation *)
  (* Requests answered, keyed by the bucket of the line's "op" field —
     the routing observability behind {!op_counts}. *)
  ops : (string, int) Hashtbl.t;
  mutable last_snapshot_at : int;  (* [requests] when the last snapshot was cut *)
  (* The persistence layer: WAL + snapshots + recovery + health.  Also
     owns the snapshot seq base — filenames must stay monotonic across
     restarts ([seq_base + requests]), or a restarted server's fresh
     snapshots would sort below — and be pruned in favor of — the
     previous incarnation's stale ones. *)
  durable : Durable.t;
  draining : bool Atomic.t;
}

let locked t f =
  Mutex.lock t.state_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.state_lock) f

let port t = t.port
let service t = t.service
let restored t = Durable.restored_plans t.durable
let persistence t = Durable.persistence t.durable
let requests t = locked t (fun () -> t.requests)
let rejections t = Gate.rejected t.gate
let connections t = locked t (fun () -> t.conn_seq)

(* [draining] is an atomic, not a [locked] field: [stop] is called from
   the binary's SIGTERM/SIGINT handler, which OCaml may run at a poll
   point in a thread that already holds [state_lock] — taking a mutex
   there would self-deadlock.  A plain atomic store is signal-safe. *)
let draining t = Atomic.get t.draining
let stop t = Atomic.set t.draining true

(* The closed set of buckets: the protocol's ops, in-band shutdown,
   every other op name as "unknown" and an unreadable op as "invalid",
   so a client cannot grow the table with made-up names. *)
let op_bucket = function
  | None -> "invalid"
  | Some op when op = "shutdown" || List.mem op Protocol.ops -> op
  | Some _ -> "unknown"

(* Caller holds [state_lock]. *)
let count_op_locked t op =
  let key = op_bucket op in
  Hashtbl.replace t.ops key (1 + Option.value (Hashtbl.find_opt t.ops key) ~default:0)

let op_counts t =
  locked t (fun () -> Hashtbl.fold (fun op n acc -> (op, n) :: acc) t.ops [])
  |> List.sort compare

(* ---------------- responses outside the service ---------------- *)

let overloaded_response ?id ~capacity () =
  Protocol.error_response ?id
    (Protocol.error_v "overloaded"
       (Printf.sprintf "admission queue full (%d requests in flight); retry later" capacity))

let deadline_response ?id ~ms () =
  Protocol.error_response ?id
    (Protocol.error_v "deadline-exceeded"
       (Printf.sprintf "request waited more than %.0f ms for the coordinator" ms))

let oversized_response ~max_line_bytes =
  Protocol.error_response
    (Protocol.error_v "invalid-request"
       (Printf.sprintf "request line exceeds %d bytes" max_line_bytes))

(* [Wire.parse_request] folds every malformed line into its envelope;
   should it raise all the same, the line is answered as [internal]
   like any other server bug, not by dropping the connection. *)
let parse_envelope line =
  try Wire.parse_request line
  with e ->
    { Protocol.id = None;
      op = None;
      request = Error (Protocol.error_v "internal" (Printexc.to_string e)) }

let shutdown_response = function
  | Some id -> Json.Obj [ ("id", id); ("ok", Json.Bool true); ("draining", Json.Bool true) ]
  | None -> Json.Obj [ ("ok", Json.Bool true); ("draining", Json.Bool true) ]

(* ---------------- snapshots ---------------- *)

(* Caller holds the coordinator lock. *)
let cut_snapshot_locked t =
  match t.config.snapshot_dir with
  | None -> Error "no snapshot directory configured"
  | Some _ ->
      let reqs = locked t (fun () -> t.requests) in
      let r =
        Durable.cut t.durable ~service:t.service
          ~seq:(Durable.seq_base t.durable + reqs)
      in
      (match r with
      | Ok _ -> locked t (fun () -> t.last_snapshot_at <- reqs)
      | Error m -> Format.eprintf "ckpt_net: snapshot failed: %s@." m);
      r

let snapshot_now t =
  Mutex.lock t.coordinator;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.coordinator) (fun () ->
      cut_snapshot_locked t)

let maybe_snapshot_locked t =
  let interval = t.config.snapshot_interval in
  if t.config.snapshot_dir <> None && interval > 0 then begin
    let due = locked t (fun () -> t.requests - t.last_snapshot_at >= interval) in
    if due then ignore (cut_snapshot_locked t)
  end

(* ---------------- request path ---------------- *)

(* [Mutex] has no timed lock: spin on [try_lock] with sub-millisecond
   naps.  The coordinator's critical sections are short (one request),
   so the spin granularity costs far less than the deadline budget. *)
let lock_with_deadline mutex ~ms =
  let deadline = Unix.gettimeofday () +. (ms /. 1000.) in
  let rec try_until () =
    if Mutex.try_lock mutex then true
    else if Unix.gettimeofday () >= deadline then false
    else begin
      Thread.delay 2e-4;
      try_until ()
    end
  in
  try_until ()

(* Returns the response already rendered to its wire line: the hot
   plan-shaped responses are streamed by [Service.handle_parsed_line]
   without ever materializing a JSON tree, and the server writes the
   string out verbatim. *)
let process t (envelope : Protocol.envelope) line =
  let id = envelope.Protocol.id in
  if not (Gate.try_acquire t.gate) then
    Json.to_string (overloaded_response ?id ~capacity:(Gate.capacity t.gate) ())
  else
    Fun.protect ~finally:(fun () -> Gate.release t.gate) @@ fun () ->
    if not (lock_with_deadline t.coordinator ~ms:t.config.request_deadline_ms) then
      Json.to_string (deadline_response ?id ~ms:t.config.request_deadline_ms ())
    else
      Fun.protect ~finally:(fun () -> Mutex.unlock t.coordinator) @@ fun () ->
      let response =
        (* The service answers every parseable-or-not line structurally;
           anything it still raises is a server bug, answered as an
           [internal] error rather than a dropped connection. *)
        try Service.handle_parsed_line t.service envelope line
        with e -> Json.to_string (Service.internal_response ?id e)
      in
      locked t (fun () ->
          t.requests <- t.requests + 1;
          count_op_locked t envelope.Protocol.op);
      maybe_snapshot_locked t;
      response

(* ---------------- connections ---------------- *)

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

let handle_connection t fd index =
  let fault = Option.bind t.config.chaos (fun c -> Chaos.net_fault c ~index) in
  match fault with
  | Some Chaos.Drop -> close_quietly fd
  | _ ->
      let slow = match fault with Some (Chaos.Stall d) -> d | _ -> 0. in
      let garbage = fault = Some Chaos.Garbage in
      let half_close = fault = Some Chaos.Half_close in
      let reader = Frame.reader ~max_line_bytes:t.config.max_line_bytes fd in
      let first = ref true in
      let answered = ref 0 in
      let respond_line s =
        if slow > 0. then Thread.delay slow;
        Frame.write_line fd s;
        incr answered
      in
      let respond json = respond_line (Json.to_string json) in
      (try
         let rec loop () =
           if draining t then ()
           else
             match Frame.read_line reader with
             | Frame.Eof | Frame.Timeout -> ()
             | Frame.Oversized ->
                 respond (oversized_response ~max_line_bytes:t.config.max_line_bytes)
             | Frame.Line line when String.trim line = "" -> loop ()
             | Frame.Line line ->
                 let line =
                   (* The garbage fault models a client whose first frame
                      is noise: the parse boundary must answer it
                      structurally, exactly like a chaos'd stdin line. *)
                   if garbage && !first then "\x02\xff garbage " ^ line else line
                 in
                 first := false;
                 (* One parse per line, before the coordinator is taken:
                    the envelope carries everything the server routes on
                    — the id (which must survive even on paths that
                    never reach the service, so overload rejections can
                    be correlated by the client) and the op (in-band
                    shutdown and the per-op accounting behind
                    {!op_counts}) — and the service answers from it. *)
                 let envelope = parse_envelope line in
                 if envelope.Protocol.op = Some "shutdown" then begin
                   locked t (fun () -> count_op_locked t envelope.Protocol.op);
                   (* Drain before the ack: a client that reads
                      "draining": true must find the server draining.
                      [join] still waits for this thread, so the ack is
                      written before the server exits. *)
                   stop t;
                   respond (shutdown_response envelope.Protocol.id)
                 end
                 else begin
                   respond_line (process t envelope line);
                   if half_close && !answered = 1 then
                     (* Injected half-close: our write side goes away
                        after the first response; keep draining reads so
                        the client can finish talking, answers go
                        nowhere.  The send failure path exits the loop. *)
                     Unix.shutdown fd Unix.SHUTDOWN_SEND;
                   loop ()
                 end
         in
         loop ()
       with Unix.Unix_error (_, _, _) | Sys_error _ -> ());
      close_quietly fd

(* Join connection threads that have marked themselves finished.  The
   mark is each thread's last action, so the joins below are immediate;
   without this a long-running server retains one Thread.t handle per
   connection it ever accepted until drain. *)
let reap_finished t =
  let done_ =
    locked t (fun () ->
        let done_, live =
          List.partition (fun th -> Hashtbl.mem t.finished (Thread.id th)) t.conn_threads
        in
        t.conn_threads <- live;
        List.iter (fun th -> Hashtbl.remove t.finished (Thread.id th)) done_;
        done_)
  in
  List.iter Thread.join done_

let spawn_connection t fd index =
  let thread =
    Thread.create
      (fun () ->
        Fun.protect
          ~finally:(fun () ->
            locked t (fun () -> Hashtbl.replace t.finished (Thread.id (Thread.self ())) ()))
          (fun () -> handle_connection t fd index))
      ()
  in
  locked t (fun () -> t.conn_threads <- thread :: t.conn_threads)

let accept_loop t =
  let rec loop () =
    if draining t then ()
    else begin
      (* Poll with a short select so the drain flag is honored even
         while no client is connecting; accept after readiness cannot
         block for long.  Each round is also the WAL's time-based
         group-commit tick — under the coordinator, because connection
         threads append to the same WAL under it; try_lock so a long
         request cannot stall accepts, and only while no request is in
         flight so the flush's fsync never sits in a request's latency
         tail.  Under sustained load the batch threshold still bounds
         how much can pend, so skipping busy rounds widens nothing
         beyond the documented fsync_batch - 1 window. *)
      if Gate.in_flight t.gate = 0 && Mutex.try_lock t.coordinator then
        Fun.protect
          ~finally:(fun () -> Mutex.unlock t.coordinator)
          (fun () -> Durable.tick t.durable);
      match Unix.select [ t.listen_fd ] [] [] 0.05 with
      | [], _, _ -> loop ()
      | _ :: _, _, _ -> (
          match Unix.accept t.listen_fd with
          | fd, _ ->
              if draining t then close_quietly fd
              else begin
                (try
                   Unix.setsockopt_float fd Unix.SO_RCVTIMEO t.config.idle_timeout_s;
                   Unix.setsockopt_float fd Unix.SO_SNDTIMEO t.config.idle_timeout_s;
                   Unix.setsockopt fd Unix.TCP_NODELAY true
                 with Unix.Unix_error _ -> ());
                let index = locked t (fun () ->
                    let i = t.conn_seq in
                    t.conn_seq <- i + 1;
                    i)
                in
                spawn_connection t fd index;
                reap_finished t
              end;
              loop ()
          | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR | ECONNABORTED), _, _) ->
              loop ()
          | exception Unix.Unix_error (_, _, _) -> ())
      | exception Unix.Unix_error (EINTR, _, _) -> loop ()
      | exception Unix.Unix_error (_, _, _) -> ()
    end
  in
  loop ();
  (* Single owner of the listening socket: closing it here (not in
     [stop]) means no thread can race an accept on a closed fd. *)
  close_quietly t.listen_fd

let check_config c =
  if c.max_inflight < 1 then invalid_arg "Server: max_inflight < 1";
  if c.backlog < 1 then invalid_arg "Server: backlog < 1";
  if not (Float.is_finite c.request_deadline_ms) || c.request_deadline_ms <= 0. then
    invalid_arg "Server: request_deadline_ms must be positive";
  if not (Float.is_finite c.idle_timeout_s) || c.idle_timeout_s <= 0. then
    invalid_arg "Server: idle_timeout_s must be positive";
  if c.max_line_bytes < 1 then invalid_arg "Server: max_line_bytes < 1";
  if c.snapshot_interval < 0 then invalid_arg "Server: snapshot_interval < 0";
  if c.snapshot_keep < 1 then invalid_arg "Server: snapshot_keep < 1";
  if c.fsync_batch < 1 then invalid_arg "Server: fsync_batch < 1";
  if not (Float.is_finite c.fsync_interval_ms) || c.fsync_interval_ms < 0. then
    invalid_arg "Server: fsync_interval_ms must be non-negative"

let start ?(config = default_config) service =
  check_config config;
  (* A peer resetting its connection must surface as EPIPE from the
     write, not kill the whole process. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  let addr =
    try Unix.inet_addr_of_string config.host
    with Failure _ ->
      (try (Unix.gethostbyname config.host).Unix.h_addr_list.(0)
       with Not_found -> invalid_arg ("Server: cannot resolve host " ^ config.host))
  in
  let listen_fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt listen_fd Unix.SO_REUSEADDR true;
     Unix.bind listen_fd (Unix.ADDR_INET (addr, config.port));
     Unix.listen listen_fd config.backlog
   with e ->
     close_quietly listen_fd;
     raise e);
  let port =
    match Unix.getsockname listen_fd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> config.port
  in
  (* Recovery (tmp cleanup, snapshot install, WAL replay) runs after the
     bind but before the accept loop exists: no request is answered by a
     partially recovered service, and a failed bind leaves no fresh WAL
     segment behind. *)
  let durable =
    let wal =
      Option.map
        (fun dir ->
          Wal.config ~fsync_batch:config.fsync_batch
            ~fsync_interval_ms:config.fsync_interval_ms ~dir ())
        config.wal_dir
    in
    let dcfg =
      Durable.config ?snapshot_dir:config.snapshot_dir
        ~snapshot_keep:config.snapshot_keep ?wal ?auto:config.durability_auto ()
    in
    match
      Durable.create ?chaos:config.chaos ?inject:config.durability_inject
        ~log:(fun m -> Format.eprintf "ckpt_net: %s@." m)
        dcfg service
    with
    | Ok d -> d
    | Error m ->
        close_quietly listen_fd;
        (* An unusable WAL directory must refuse to start: a server that
           silently acked undurable stateful ops would violate the
           contract the WAL exists to provide. *)
        failwith ("Server: durability init failed: " ^ m)
  in
  let t =
    { config;
      service;
      listen_fd;
      port;
      gate = Gate.create ~capacity:config.max_inflight;
      coordinator = Mutex.create ();
      state_lock = Mutex.create ();
      accept_thread = None;
      conn_threads = [];
      finished = Hashtbl.create 16;
      conn_seq = 0;
      requests = 0;
      ops = Hashtbl.create 16;
      last_snapshot_at = 0;
      durable;
      draining = Atomic.make false }
  in
  t.accept_thread <- Some (Thread.create (fun () -> accept_loop t) ());
  t

let join_threads t =
  Option.iter Thread.join t.accept_thread;
  t.accept_thread <- None;
  (* Threads spawned after the snapshot of the list are impossible: the
     accept loop has exited, so the list is final once it is joined. *)
  let rec drain_threads () =
    let threads = locked t (fun () ->
        let l = t.conn_threads in
        t.conn_threads <- [];
        l)
    in
    if threads <> [] then begin
      List.iter Thread.join threads;
      drain_threads ()
    end
  in
  drain_threads ();
  locked t (fun () -> Hashtbl.reset t.finished)

let join t =
  join_threads t;
  if t.config.snapshot_dir <> None then ignore (snapshot_now t);
  Durable.close t.durable

let abort t =
  stop t;
  join_threads t;
  (* No final snapshot, no WAL flush: the on-disk state is exactly what
     a [kill -9] at this point would have left. *)
  Durable.abort t.durable
