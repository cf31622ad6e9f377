module Chaos = Ckpt_chaos.Chaos

exception Injected_crash = Chaos.Injected_crash

type fault_hook = op:string -> Chaos.fault option

type config = {
  dir : string;
  fsync_batch : int;
  fsync_interval_ms : float;
  segment_bytes : int;
}

let config ?(fsync_batch = 1) ?(fsync_interval_ms = 50.) ?(segment_bytes = 1 lsl 20)
    ~dir () =
  if fsync_batch < 1 then invalid_arg "Wal.config: fsync_batch < 1";
  if segment_bytes < 1 then invalid_arg "Wal.config: segment_bytes < 1";
  if not (Float.is_finite fsync_interval_ms) || fsync_interval_ms < 0. then
    invalid_arg "Wal.config: fsync_interval_ms must be finite and >= 0";
  { dir; fsync_batch; fsync_interval_ms; segment_bytes }

(* ---------------- segment files ---------------- *)

let segment_re name =
  let prefix = "wal-" and suffix = ".log" in
  let np = String.length prefix and ns = String.length suffix in
  let n = String.length name in
  n > np + ns
  && String.sub name 0 np = prefix
  && String.sub name (n - ns) ns = suffix
  && String.for_all (fun c -> c >= '0' && c <= '9') (String.sub name np (n - np - ns))

let list_segments dir =
  match Sys.readdir dir with
  | entries ->
      Array.to_list entries |> List.filter segment_re |> List.sort compare
  | exception Sys_error _ -> []

let segment_name seq = Printf.sprintf "wal-%012d.log" seq

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () ->
      really_input_string ic (in_channel_length ic))

(* ---------------- record framing ---------------- *)

let frame ~seq payload =
  Printf.sprintf "W %d %d %08x\n%s\n" seq (String.length payload)
    (Crc32.string payload) payload

(* Parse one segment's bytes.  Returns the records readable before the
   first bad/torn record, whether the segment parsed to the end, and how
   many tail regions were dropped (0 or 1 — parsing stops at the first). *)
let parse_segment ~after s =
  let total = String.length s in
  let rec walk pos last acc =
    if pos >= total then (List.rev acc, true, 0)
    else
      let bad () = (List.rev acc, false, 1) in
      match String.index_from_opt s pos '\n' with
      | None -> bad ()
      | Some nl -> (
          let header = String.sub s pos (nl - pos) in
          match String.split_on_char ' ' header with
          | [ "W"; seq_s; len_s; crc_s ] -> (
              match
                ( int_of_string_opt seq_s,
                  int_of_string_opt len_s,
                  Crc32.of_hex crc_s )
              with
              | Some seq, Some len, Some crc
                when len >= 0 && seq > last && nl + 1 + len < total ->
                  if s.[nl + 1 + len] <> '\n' then bad ()
                  else if Crc32.sub s ~pos:(nl + 1) ~len <> crc then bad ()
                  else
                    let acc =
                      if seq > after then (seq, String.sub s (nl + 1) len) :: acc
                      else acc
                    in
                    walk (nl + 2 + len) seq acc
              | _ -> bad ())
          | _ -> bad ())
  in
  walk 0 0 []

type seg_info = {
  seg_path : string;
  seg_bytes : int;
  seg_records : (int * string) list;  (* seqs > after, in order *)
  seg_last : int;  (* last valid seq in the segment, 0 if none *)
  seg_clean : bool;
}

let scan_dir ?(log = fun _ -> ()) ?(after = 0) dir =
  List.map
    (fun name ->
      let path = Filename.concat dir name in
      match read_file path with
      | s ->
          let records, clean, _ = parse_segment ~after s in
          let seg_last =
            (* last *valid* seq regardless of [after] filtering *)
            let all, _, _ = parse_segment ~after:0 s in
            match List.rev all with [] -> 0 | (seq, _) :: _ -> seq
          in
          if not clean then
            log (Printf.sprintf "%s: torn or corrupt tail, replaying %d records"
                   path (List.length records));
          { seg_path = path; seg_bytes = String.length s;
            seg_records = records; seg_last; seg_clean = clean }
      | exception e ->
          log (Printf.sprintf "%s: unreadable: %s (skipping)" path
                 (Printexc.to_string e));
          { seg_path = path; seg_bytes = 0; seg_records = []; seg_last = 0;
            seg_clean = false })
    (list_segments dir)

type scan = {
  records : (int * string) list;
  dropped_records : int;
  skipped_segments : int;
  segments : int;
  bytes : int;
  last_seq : int;
}

let load ?(log = fun _ -> ()) ~dir () =
  let segs = scan_dir ~log dir in
  (* Truncate-at-first-bad across the whole log: once a segment is dirty,
     nothing after it is replayed (records there would leave a gap). *)
  let rec walk acc last dropped skipped dirty = function
    | [] -> (List.concat (List.rev acc), last, dropped, skipped)
    | seg :: rest ->
        if dirty then
          walk acc last dropped
            (skipped + if seg.seg_records <> [] || not seg.seg_clean then 1 else 0)
            dirty rest
        else
          let dropped = dropped + if seg.seg_clean then 0 else 1 in
          walk (seg.seg_records :: acc)
            (max last seg.seg_last)
            dropped skipped (not seg.seg_clean) rest
  in
  let records, last_seq, dropped_records, skipped_segments =
    walk [] 0 0 0 false segs
  in
  { records; dropped_records; skipped_segments;
    segments = List.length segs;
    bytes = List.fold_left (fun a s -> a + s.seg_bytes) 0 segs;
    last_seq }

(* ---------------- appender ---------------- *)

type t = {
  cfg : config;
  inject : fault_hook option;
  log : string -> unit;
  mutable fd : Unix.file_descr;
  mutable cur_path : string;
  mutable cur_base : int;  (* first seq this segment was opened for *)
  mutable offset : int;  (* bytes written to the current segment *)
  mutable synced_off : int;  (* offset covered by the last good fsync *)
  mutable next : int;
  mutable synced : int;  (* highest seq known durable *)
  mutable written : int;  (* highest seq fully written (>= synced) *)
  mutable unsynced : int;  (* records written since the last fsync *)
  mutable pending_fsync_fault : bool;
  mutable last_fsync_at : float;
  mutable sealed : (string * int) list;  (* (path, last seq), oldest first *)
  mutable appended : int;
  mutable fsyncs : int;
  mutable errors : int;
  mutable last_error : string option;
  mutable dead : bool;
}

let consult t ~op =
  match t.inject with None -> None | Some hook -> hook ~op

let crash op = raise (Injected_crash op)

let fail t msg =
  t.errors <- t.errors + 1;
  t.last_error <- Some msg;
  Error msg

(* Directory entries (new/removed segments) need a directory fsync to be
   durable.  Same benign-tolerance policy as Snapshot.fsync_dir. *)
let fsync_dir_result dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | fd ->
      Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          match Unix.fsync fd with
          | () -> Ok ()
          | exception Unix.Unix_error ((EINVAL | ENOSYS | EOPNOTSUPP | EBADF), _, _) ->
              Ok ()
          | exception Unix.Unix_error (err, fn, _) ->
              Error (Printf.sprintf "fsync %s: %s" fn (Unix.error_message err)))
  | exception Unix.Unix_error ((EINVAL | ENOSYS | EOPNOTSUPP | EACCES), _, _) -> Ok ()
  | exception Unix.Unix_error (err, fn, _) ->
      Error (Printf.sprintf "%s %s: %s" fn dir (Unix.error_message err))

let open_segment t ~base =
  (match consult t ~op:"segment-create" with
  | Some Chaos.Crash | Some Chaos.Torn -> crash "segment-create"
  | _ -> ());
  let path = Filename.concat t.cfg.dir (segment_name base) in
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  (match fsync_dir_result t.cfg.dir with
  | Ok () -> ()
  | Error m -> t.log (Printf.sprintf "ckpt_wal: %s (segment entry not yet durable)" m));
  t.fd <- fd;
  t.cur_path <- path;
  t.cur_base <- base;
  t.offset <- 0;
  t.synced_off <- 0

let open_ ?inject ?(log = fun _ -> ()) cfg ~next_seq =
  try
    if not (Sys.file_exists cfg.dir) then Unix.mkdir cfg.dir 0o755;
    let sealed =
      scan_dir ~log cfg.dir
      |> List.map (fun seg -> (seg.seg_path, seg.seg_last))
    in
    let t =
      { cfg; inject; log;
        fd = Unix.stdout (* replaced below *);
        cur_path = ""; cur_base = 0; offset = 0; synced_off = 0;
        next = next_seq; synced = next_seq - 1; written = next_seq - 1;
        unsynced = 0; pending_fsync_fault = false;
        last_fsync_at = Unix.gettimeofday ();
        sealed; appended = 0; fsyncs = 0; errors = 0; last_error = None;
        dead = false }
    in
    open_segment t ~base:next_seq;
    (* The fresh segment may have truncated an old file of the same name;
       drop it from the sealed list if so. *)
    t.sealed <- List.filter (fun (p, _) -> p <> t.cur_path) t.sealed;
    Ok t
  with
  | Injected_crash _ as e -> raise e
  | Unix.Unix_error (err, fn, arg) ->
      Error (Printf.sprintf "wal open failed: %s %s: %s" fn arg (Unix.error_message err))
  | Sys_error m -> Error ("wal open failed: " ^ m)

let write_all ?(chunk = max_int) fd s =
  let b = Bytes.of_string s in
  let len = Bytes.length b in
  let off = ref 0 in
  while !off < len do
    off := !off + Unix.write fd b !off (min chunk (len - !off))
  done

(* Erase the unsynced suffix so records whose ops were refused (or were
   acked only under a relaxed batch) cannot resurface on replay. *)
(* [t.next] is deliberately NOT rolled back: erased seqs simply never
   appear on disk.  Replay tolerates gaps (it only requires monotonic
   seqs), and reusing an erased seq could collide with a snapshot
   watermark that already covers it, silently skipping later records. *)
let erase_unsynced t reason =
  t.unsynced <- 0;
  t.written <- t.synced;
  try
    Unix.ftruncate t.fd t.synced_off;
    ignore (Unix.lseek t.fd t.synced_off Unix.SEEK_SET);
    (try Unix.fsync t.fd with Unix.Unix_error _ -> ());
    t.offset <- t.synced_off;
    fail t reason
  with Unix.Unix_error (err, fn, _) ->
    t.dead <- true;
    fail t
      (Printf.sprintf "%s; recovery truncate failed (%s: %s), wal disabled"
         reason fn (Unix.error_message err))

let do_flush t =
  if t.unsynced = 0 then Ok ()
  else begin
    (match consult t ~op:"fsync" with
    | Some Chaos.Crash | Some Chaos.Torn -> crash "fsync"
    | Some Chaos.Fsync_fail -> t.pending_fsync_fault <- true
    | _ -> ());
    if t.pending_fsync_fault then begin
      t.pending_fsync_fault <- false;
      erase_unsynced t "injected fsync failure"
    end
    else
      match Unix.fsync t.fd with
      | () ->
          t.synced_off <- t.offset;
          t.synced <- t.written;
          t.unsynced <- 0;
          t.fsyncs <- t.fsyncs + 1;
          t.last_fsync_at <- Unix.gettimeofday ();
          Ok ()
      | exception Unix.Unix_error (err, fn, _) ->
          erase_unsynced t
            (Printf.sprintf "wal fsync failed: %s: %s" fn (Unix.error_message err))
  end

let seal t =
  if t.offset > 0 then begin
    (try Unix.close t.fd with Unix.Unix_error _ -> ());
    t.sealed <- t.sealed @ [ (t.cur_path, t.written) ];
    open_segment t ~base:t.next
  end

let maybe_rotate t =
  if t.offset >= t.cfg.segment_bytes then
    match do_flush t with Ok () -> seal t | Error _ -> ()

let append t payload =
  if t.dead then
    Error ("wal disabled after unrecoverable failure: "
           ^ Option.value ~default:"unknown" t.last_error)
  else begin
    maybe_rotate t;
    let seq = t.next in
    let fault = consult t ~op:"append" in
    (match fault with Some Chaos.Crash -> crash "append" | _ -> ());
    let record = frame ~seq payload in
    match
      (match fault with
      | Some Chaos.Torn ->
          write_all t.fd (String.sub record 0 (String.length record / 2));
          crash "append-torn"
      | Some Chaos.Short_write -> write_all ~chunk:7 t.fd record
      | Some Chaos.Fsync_fail ->
          t.pending_fsync_fault <- true;
          write_all t.fd record
      | _ -> write_all t.fd record)
    with
    | () ->
        t.offset <- t.offset + String.length record;
        t.next <- seq + 1;
        t.written <- seq;
        t.unsynced <- t.unsynced + 1;
        t.appended <- t.appended + 1;
        if t.unsynced >= t.cfg.fsync_batch then
          match do_flush t with Ok () -> Ok seq | Error m -> Error m
        else Ok seq
    | exception Unix.Unix_error (err, fn, _) ->
        (* A partial record may be on disk; erase back to the synced
           prefix so it cannot be replayed. *)
        erase_unsynced t
          (Printf.sprintf "wal append failed: %s: %s" fn (Unix.error_message err))
  end

let flush t = if t.dead then Error "wal disabled" else do_flush t

let flush_if_due t =
  if (not t.dead) && t.unsynced > 0 then begin
    let age_ms = (Unix.gettimeofday () -. t.last_fsync_at) *. 1000. in
    if age_ms >= t.cfg.fsync_interval_ms then
      match do_flush t with
      | Ok () -> ()
      | Error m -> t.log ("ckpt_wal: timed flush failed: " ^ m)
  end

let retire t ~upto =
  if not t.dead then ignore (do_flush t);
  seal t;
  let deleted = ref 0 in
  t.sealed <-
    List.filter
      (fun (path, last) ->
        if last <= upto then begin
          (match consult t ~op:"retire" with
          | Some Chaos.Crash | Some Chaos.Torn -> crash "retire"
          | _ -> ());
          (try Sys.remove path with Sys_error _ -> ());
          incr deleted;
          false
        end
        else true)
      t.sealed;
  if !deleted > 0 then ignore (fsync_dir_result t.cfg.dir);
  !deleted

let close t =
  (if not t.dead then match do_flush t with Ok () | Error _ -> ());
  try Unix.close t.fd with Unix.Unix_error _ -> ()

(* Close without the flush: simulates process death for tests — any
   unsynced tail stays exactly as a kill -9 would leave it. *)
let abort t = try Unix.close t.fd with Unix.Unix_error _ -> ()

let next_seq t = t.next
let synced_seq t = max 0 t.synced

let segments t = List.length t.sealed + 1
let bytes t = List.fold_left (fun a (p, _) ->
    a + (try (Unix.stat p).Unix.st_size with Unix.Unix_error _ -> 0))
    t.offset t.sealed
let appended t = t.appended
let fsyncs t = t.fsyncs
let errors t = t.errors
let last_error t = t.last_error
let dead t = t.dead
