(** Durable-file primitives shared by {!Wal} and {!Snapshot}: numbered
    file names, directory listing, whole-file reads, full writes, and the
    directory fsync that makes a created, renamed or removed entry
    survive a power cut. *)

val list_numbered : prefix:string -> suffix:string -> string -> string list
(** The names in a directory that are [prefix], at least one decimal
    digit, then [suffix], in ascending name order (the number order of
    the zero-padded names both writers use); [[]] when the directory
    cannot be read. *)

val read_file : string -> string
(** The whole file.  @raise Sys_error *)

val write_all : ?chunk:int -> ?pos:int -> ?len:int -> Unix.file_descr -> string -> unit
(** Write [len] bytes of the string from [pos] (default: all of it),
    looping until every byte is written, at most [chunk] bytes per
    [write] call.  @raise Unix.Unix_error *)

val fsync_dir : string -> (unit, string) result
(** fsync a directory, so the entries created, renamed or removed in it
    are on disk.  Platforms that cannot fsync a directory answer
    EINVAL/ENOSYS-style errors, which are benign ([Ok]); anything else
    (EIO and friends) is a real failure, reported as [Error] for the
    caller's health counters. *)
