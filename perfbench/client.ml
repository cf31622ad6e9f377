(* The socket run: a real ckpt_serve process, driven by this single
   thread over two connections in a closed loop.

   Each connection sends its next request the moment its reply lands (a
   planner's callers wait for their plan), so with two connections the
   server always has a request queued: the numbers measure its capacity,
   not its wake-up latency.  The next request is generated while the
   current one is in flight, so generation stays off the clock. *)

module Frame = Ckpt_net.Frame

let now_ns = Spans.now_ns

(* ---------------- run directories ---------------- *)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* ---------------- the server process ---------------- *)

type server = { pid : int; port : int; out : Unix.file_descr }

exception Failed of string

let fail fmt = Printf.ksprintf (fun m -> raise (Failed m)) fmt

let rec restart_on_eintr f = try f () with Unix.Unix_error (Unix.EINTR, _, _) -> restart_on_eintr f

(* The startup line: "ckpt-serve listening on HOST:PORT (...)". *)
let read_port fd ~timeout_s =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let buf = Buffer.create 256 and chunk = Bytes.create 256 in
  let rec loop () =
    match String.index_opt (Buffer.contents buf) '\n' with
    | Some i -> (
        let line = Buffer.sub buf 0 i in
        try Scanf.sscanf line "ckpt-serve listening on %_[^:]:%d" Fun.id
        with Scanf.Scan_failure _ | End_of_file | Failure _ ->
          fail "unexpected server startup line: %S" line)
    | None ->
        let left = deadline -. Unix.gettimeofday () in
        if left <= 0. then fail "the server printed no startup line within %.0f s" timeout_s;
        (match restart_on_eintr (fun () -> Unix.select [ fd ] [] [] left) with
        | [], _, _ -> ()
        | _ -> (
            match Unix.read fd chunk 0 (Bytes.length chunk) with
            | 0 -> fail "the server exited before listening"
            | n -> Buffer.add_subbytes buf chunk 0 n));
        loop ()
  in
  loop ()

let start_server ~exe ~args ~log =
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let err = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644 in
  let pid =
    Fun.protect ~finally:(fun () -> List.iter Unix.close [ in_r; in_w; out_w; err ]) @@ fun () ->
    Unix.create_process exe (Array.of_list (exe :: args)) in_r out_w err
  in
  match read_port out_r ~timeout_s:60. with
  | port -> { pid; port; out = out_r }
  | exception e ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (restart_on_eintr (fun () -> Unix.waitpid [] pid));
      Unix.close out_r;
      raise e

(* SIGTERM (graceful drain), then wait; SIGKILL if it has not exited
   after [grace_s].  Returns once the process is reaped. *)
let stop_server ?(grace_s = 20.) s =
  (try Unix.kill s.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = Unix.gettimeofday () +. grace_s in
  let rec wait () =
    match restart_on_eintr (fun () -> Unix.waitpid [ Unix.WNOHANG ] s.pid) with
    | 0, _ when Unix.gettimeofday () < deadline ->
        Unix.sleepf 0.002;
        wait ()
    | 0, _ ->
        (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (restart_on_eintr (fun () -> Unix.waitpid [] s.pid));
        `Killed
    | _, status -> `Exited status
  in
  let r = wait () in
  Unix.close s.out;
  r

(* Peak resident set of a live process, in MiB. *)
let vm_hwm_mb pid =
  let path = Printf.sprintf "/proc/%d/status" pid in
  let lines = In_channel.with_open_text path In_channel.input_all |> String.split_on_char '\n' in
  match List.find_opt (fun l -> String.starts_with ~prefix:"VmHWM:" l) lines with
  | Some l -> Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
  | None -> fail "no VmHWM in %s" path

(* CPU time of every thread of a live process, in ns, from
   /proc/PID/task/*/schedstat.  The kernel counts a thread's time on a
   CPU there without the time the hypervisor gave to other guests
   (paravirtual steal accounting), so steal does not count; other load
   on the host still slows a CPU second down (see README.md).  The
   server's threads live as long as its connections, so no thread that
   did the measured work is missing from the sum. *)
let cpu_ns pid =
  let dir = Printf.sprintf "/proc/%d/task" pid in
  Array.fold_left
    (fun acc tid ->
      let path = Filename.concat (Filename.concat dir tid) "schedstat" in
      match In_channel.with_open_text path In_channel.input_all with
      | s -> acc + Scanf.sscanf s "%d" Fun.id
      | exception Sys_error _ -> acc (* the thread has just exited *))
    0 (Sys.readdir dir)

(* The share of the host's CPU time the hypervisor gave to other guests
   between two readings of /proc/stat ("steal").  It slows the wall-clock
   figures of a run down; reported, not gated.  Without /proc/stat it
   reads 0. *)
let cpu_times () =
  match In_channel.with_open_text "/proc/stat" In_channel.input_line with
  | Some line -> (
      match String.split_on_char ' ' line |> List.filter (( <> ) "") with
      | "cpu" :: fields -> Array.of_list (List.map int_of_string fields)
      | _ -> [||])
  | None -> [||]
  | exception (Sys_error _ | Failure _) -> [||]

let steal_share before after =
  if Array.length before < 8 || Array.length after < 8 then 0.
  else
    let d i = after.(i) - before.(i) in
    let total = ref 0 in
    Array.iteri (fun i _ -> total := !total + d i) after;
    if !total = 0 then 0. else float_of_int (d 7) /. float_of_int !total

(* ---------------- connections ---------------- *)

type conn = {
  index : int;
  fd : Unix.file_descr;
  rbuf : Buffer.t;  (* the part of a reply that has arrived *)
  next : unit -> Gen.request;
  mutable prepared : Gen.request;
  mutable inflight : Gen.request option;
  mutable sent_ns : int;
}

let connect port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
     Unix.setsockopt fd Unix.TCP_NODELAY true
   with e ->
     Unix.close fd;
     raise e);
  fd

let conn index fd next = { index; fd; rbuf = Buffer.create 4096; next; prepared = next (); inflight = None; sent_ns = 0 }

let chunk = Bytes.create 65536

(* Read what is available; [Some line] once a whole reply has arrived. *)
let read_reply fd rbuf =
  match restart_on_eintr (fun () -> Unix.read fd chunk 0 (Bytes.length chunk)) with
  | 0 -> fail "the server closed a connection"
  | n -> (
      Buffer.add_subbytes rbuf chunk 0 n;
      (* One request is in flight per connection, so a newline can only
         end the chunk. *)
      if Bytes.get chunk (n - 1) <> '\n' then None
      else if Bytes.index_opt chunk '\n' <> Some (n - 1) then
        fail "a reply arrived that nobody asked for"
      else begin
        let s = Buffer.sub rbuf 0 (Buffer.length rbuf - 1) in
        Buffer.clear rbuf;
        Some s
      end)

(* A blocking request/reply on one connection, outside the timed loop. *)
let ask fd line =
  Frame.write_line fd line;
  let rbuf = Buffer.create 4096 in
  let rec wait () =
    match restart_on_eintr (fun () -> Unix.select [ fd ] [] [] 120.) with
    | [], _, _ -> fail "no reply within 120 s to %s" line
    | _ -> ( match read_reply fd rbuf with Some r -> r | None -> wait ())
  in
  wait ()

(* The healthy reply to request [id] starts like this. *)
let ok_prefix id = Printf.sprintf {|{"id":%d,"ok":true|} id

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec matches i j = j = m || (s.[i + j] = sub.[j] && matches i (j + 1)) in
  let rec at i = i + m <= n && (matches i 0 || at (i + 1)) in
  at 0

(* Cheap checks every reply gets: answered ok for the right id, no
   failed row, not served by the fallback chain. *)
let healthy (req : Gen.request) reply =
  String.starts_with ~prefix:(ok_prefix req.Gen.id) reply
  && (not (contains reply {|"error":|}))
  && not (contains reply {|"degraded"|})

(* ---------------- the closed loop ---------------- *)

type sample = { conn : int; latency_ns : int }

type loop_result = {
  samples : sample array;  (* replies that landed inside the window *)
  window_ns : int;
  steal : float;  (* the host's steal share over the window *)
  sent : int;  (* every request sent was answered before the loop returned *)
}

(* Drive both connections for [seconds]; [on_reply conn req reply] sees
   every reply, including those drained after the window closed. *)
let closed_loop conns ~seconds ~on_reply =
  let samples = ref [] and sent = ref 0 in
  let send c =
    let req = c.prepared in
    c.inflight <- Some req;
    c.sent_ns <- now_ns ();
    Frame.write_line c.fd req.Gen.line;
    incr sent;
    c.prepared <- c.next ()
  in
  let cpu0 = cpu_times () in
  let t0 = now_ns () in
  let window_ns = int_of_float (seconds *. 1e9) in
  let deadline = t0 + window_ns in
  let steal = ref None in
  Array.iter send conns;
  let rec loop () =
    match List.filter (fun c -> Option.is_some c.inflight) (Array.to_list conns) with
    | [] -> ()
    | waiting -> (
        let fds = List.map (fun c -> c.fd) waiting in
        let now = now_ns () in
        if now > deadline && !steal = None then steal := Some (steal_share cpu0 (cpu_times ()));
        let timeout = if now < deadline then float_of_int (deadline - now) /. 1e9 else 120. in
        match restart_on_eintr (fun () -> Unix.select fds [] [] timeout) with
        | [], _, _ when now < deadline -> loop ()
        | [], _, _ -> fail "no reply within 120 s"
        | ready, _, _ ->
            List.iter
              (fun c ->
                if List.memq c.fd ready then
                  match read_reply c.fd c.rbuf with
                  | None -> ()
                  | Some reply ->
                      let t = now_ns () in
                      let req = Option.get c.inflight in
                      c.inflight <- None;
                      if t <= deadline then begin
                        samples := { conn = c.index; latency_ns = t - c.sent_ns } :: !samples;
                        send c
                      end;
                      on_reply c req reply)
              waiting;
            loop ())
  in
  loop ();
  let steal = match !steal with Some s -> s | None -> steal_share cpu0 (cpu_times ()) in
  { samples = Array.of_list (List.rev !samples); window_ns; steal; sent = !sent }
