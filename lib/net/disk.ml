let numbered ~prefix ~suffix name =
  let np = String.length prefix and ns = String.length suffix in
  let n = String.length name in
  n > np + ns
  && String.starts_with ~prefix name
  && String.ends_with ~suffix name
  && String.for_all (fun c -> c >= '0' && c <= '9') (String.sub name np (n - np - ns))

let list_numbered ~prefix ~suffix dir =
  match Sys.readdir dir with
  | entries ->
      Array.to_list entries |> List.filter (numbered ~prefix ~suffix) |> List.sort compare
  | exception Sys_error _ -> []

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () ->
      really_input_string ic (in_channel_length ic))

let write_all ?(chunk = max_int) ?(pos = 0) ?len fd s =
  let stop = match len with Some l -> pos + l | None -> String.length s in
  let off = ref pos in
  while !off < stop do
    off := !off + Unix.write_substring fd s !off (min chunk (stop - !off))
  done

let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | fd ->
      Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          match Unix.fsync fd with
          | () -> Ok ()
          | exception Unix.Unix_error ((EINVAL | ENOSYS | EOPNOTSUPP | EBADF), _, _) ->
              Ok ()
          | exception Unix.Unix_error (err, _, _) ->
              Error
                (Printf.sprintf "directory fsync %s failed: %s" dir
                   (Unix.error_message err)))
  | exception Unix.Unix_error ((EINVAL | ENOSYS | EOPNOTSUPP | EACCES), _, _) -> Ok ()
  | exception Unix.Unix_error (err, _, _) ->
      Error
        (Printf.sprintf "directory open %s failed: %s" dir (Unix.error_message err))
