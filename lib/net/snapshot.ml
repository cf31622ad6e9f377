module Json = Ckpt_json.Json
module Codec = Ckpt_model.Codec
module Service = Ckpt_service.Service
module Planner = Ckpt_service.Planner
module Lru_cache = Ckpt_service.Lru_cache
module Rate_estimator = Ckpt_adaptive.Rate_estimator
module Cost_estimator = Ckpt_adaptive.Cost_estimator

type state = {
  seq : int;
  wal_seq : int;
  cache : (string * Ckpt_model.Optimizer.plan) list;
  session : (Rate_estimator.t * Cost_estimator.t) option;
}

let version = 1
let magic = "CKPTSNAP"

let of_service ?(wal_seq = 0) ~seq service =
  { seq;
    wal_seq;
    cache = Lru_cache.to_list (Planner.cache (Service.planner service));
    session = Service.session_estimators service }

let install state service =
  let cache = Planner.cache (Service.planner service) in
  (* Oldest (the LRU tail) first, so the re-added entries end up in the
     original recency order and capacity pressure evicts the same keys
     the uninterrupted cache would have. *)
  List.iter (fun (k, plan) -> Lru_cache.add cache k plan) (List.rev state.cache);
  Option.iter
    (fun (rates, costs) -> Service.restore_session service ~rates ~costs)
    state.session;
  List.length state.cache

(* ---------------- encode ---------------- *)

let payload_json state =
  Json.Obj
    [ ("kind", Json.String "ckpt-net-snapshot");
      ("version", Json.Number (float_of_int version));
      ("seq", Json.Number (float_of_int state.seq));
      ("wal_seq", Json.Number (float_of_int state.wal_seq));
      ( "cache",
        Json.List
          (List.map
             (fun (key, plan) ->
               Json.List [ Json.String key; Codec.plan_to_json plan ])
             state.cache) );
      ( "session",
        match state.session with
        | None -> Json.Null
        | Some (rates, costs) ->
            Json.Obj
              [ ("rates", Rate_estimator.to_json rates);
                ("costs", Cost_estimator.to_json costs) ] ) ]

let encode state =
  let payload = Json.to_string (payload_json state) in
  Printf.sprintf "%s %d %08x %d\n%s" magic version (Crc32.string payload)
    (String.length payload) payload

(* ---------------- decode ---------------- *)

let ( let* ) = Result.bind

let decode_header s =
  match String.index_opt s '\n' with
  | None -> Error "no header line"
  | Some nl -> (
      let header = String.sub s 0 nl in
      match String.split_on_char ' ' header with
      | [ m; v; crc; len ] -> (
          if m <> magic then Error "bad magic"
          else
            match (int_of_string_opt v, Crc32.of_hex crc, int_of_string_opt len) with
            | Some v, _, _ when v > version ->
                Error (Printf.sprintf "snapshot version %d is newer than this build (%d)" v version)
            | Some v, _, _ when v < 1 -> Error "bad version"
            | Some _, Some crc, Some len ->
                if len <> String.length s - nl - 1 then
                  Error
                    (Printf.sprintf "payload length mismatch: header says %d, file has %d"
                       len (String.length s - nl - 1))
                else
                  let actual = Crc32.sub s ~pos:(nl + 1) ~len in
                  if actual <> crc then
                    Error (Printf.sprintf "CRC mismatch: header %08x, payload %08x" crc actual)
                  else Ok (String.sub s (nl + 1) len)
            | _ -> Error "unparseable header fields")
      | _ -> Error "unparseable header")

let decode_cache json =
  match Option.bind (Json.member "cache" json) Json.to_list with
  | None -> Error "missing cache list"
  | Some entries ->
      let rec walk acc = function
        | [] -> Ok (List.rev acc)
        | Json.List [ Json.String key; plan_json ] :: rest -> (
            match Codec.plan_of_json plan_json with
            | Ok plan -> walk ((key, plan) :: acc) rest
            | Error m -> Error ("cache entry does not decode: " ^ m))
        | _ -> Error "cache entry is not a [key, plan] pair"
      in
      walk [] entries

let decode_session json =
  match Json.member "session" json with
  | None | Some Json.Null -> Ok None
  | Some s -> (
      match (Json.member "rates" s, Json.member "costs" s) with
      | Some rates, Some costs ->
          let* rates = Rate_estimator.of_json rates in
          let* costs = Cost_estimator.of_json costs in
          if Rate_estimator.levels rates <> Cost_estimator.levels costs then
            Error "session estimators disagree on level count"
          else Ok (Some (rates, costs))
      | _ -> Error "session missing rates or costs")

let decode s =
  (* Belt and braces: every failure path below is already an [Error],
     but a decoder that can never raise is the contract the fuzz tests
     hold us to, so the whole thing is fenced. *)
  try
    let* payload = decode_header s in
    let* json =
      match Json.parse_result payload with
      | Ok j -> Ok j
      | Error m -> Error ("payload is not JSON: " ^ m)
    in
    let* () =
      match Json.string_field "kind" json with
      | Some "ckpt-net-snapshot" -> Ok ()
      | _ -> Error "payload kind is not ckpt-net-snapshot"
    in
    let* seq =
      match Option.bind (Json.member "seq" json) Json.to_int with
      | Some n when n >= 0 -> Ok n
      | _ -> Error "missing or negative seq"
    in
    (* Absent in pre-WAL snapshots (same version, unknown-field rule):
       watermark 0 means "replay the whole WAL", which is exactly right
       for a directory that predates the WAL. *)
    let wal_seq =
      match Option.bind (Json.member "wal_seq" json) Json.to_int with
      | Some n when n >= 0 -> n
      | _ -> 0
    in
    let* cache = decode_cache json in
    let* session = decode_session json in
    Ok { seq; wal_seq; cache; session }
  with e -> Error ("snapshot decode raised: " ^ Printexc.to_string e)

(* ---------------- files ---------------- *)

(* snapshot-<digits>.ckpt, newest (highest seq) first *)
let list_snapshots dir =
  List.rev (Disk.list_numbered ~prefix:"snapshot-" ~suffix:".ckpt" dir)

let clean_tmp ?(log = fun _ -> ()) ~dir () =
  match Sys.readdir dir with
  | entries ->
      Array.fold_left
        (fun n name ->
          if Filename.check_suffix name ".tmp" then begin
            let path = Filename.concat dir name in
            log (Printf.sprintf "%s: leftover temp from an interrupted save, removing" path);
            match Sys.remove path with () -> n + 1 | exception Sys_error _ -> n
          end
          else n)
        0 entries
  | exception Sys_error _ -> 0

let save ?(keep = 4) ?(inject = fun _ -> ()) ~dir state =
  if keep < 1 then invalid_arg "Snapshot.save: keep < 1";
  try
    if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
    let path = Filename.concat dir (Printf.sprintf "snapshot-%012d.ckpt" state.seq) in
    let tmp = path ^ ".tmp" in
    let image = encode state in
    let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
    Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        (* Two halves with an injection point between: a crash here
           leaves a genuinely torn temp file for recovery to ignore. *)
        let half = String.length image / 2 in
        Disk.write_all fd image ~len:half;
        inject "snapshot-write";
        Disk.write_all fd image ~pos:half;
        inject "snapshot-fsync";
        Unix.fsync fd);
    inject "snapshot-rename";
    Unix.rename tmp path;
    inject "snapshot-dir-fsync";
    (* The rename makes the contents durable, but the directory entry is
       not on disk until the directory is fsynced: without it a crash
       shortly after the save can lose the whole file. *)
    let* () = Disk.fsync_dir dir in
    inject "snapshot-prune";
    (* Prune: everything but the [keep] newest.  Best effort — a file
       that vanishes or resists unlinking never fails the snapshot. *)
    List.iteri
      (fun i name ->
        if i >= keep then try Sys.remove (Filename.concat dir name) with Sys_error _ -> ())
      (list_snapshots dir);
    Ok path
  with
  | Unix.Unix_error (err, fn, arg) ->
      Error (Printf.sprintf "snapshot write failed: %s %s: %s" fn arg (Unix.error_message err))
  | Sys_error m -> Error ("snapshot write failed: " ^ m)

let load_latest ?(log = fun _ -> ()) ~dir () =
  let rec first = function
    | [] -> None
    | name :: rest -> (
        let path = Filename.concat dir name in
        match decode (Disk.read_file path) with
        | Ok state -> Some state
        | Error m ->
            log (Printf.sprintf "%s: %s (falling back)" path m);
            first rest
        | exception e ->
            log (Printf.sprintf "%s: unreadable: %s (falling back)" path (Printexc.to_string e));
            first rest)
  in
  first (list_snapshots dir)
