(** Durable service state: atomic snapshots and warm restart.

    What the paper's model does for applications — checkpoint so a crash
    loses bounded work — applied to the planner itself.  A snapshot
    captures the parts of a {!Ckpt_service.Service.t} that are expensive
    or impossible to recompute:

    - the plan cache (every resident plan, most recently used first),
      and
    - the telemetry session's estimator state, including the exposure
      watermarks ([last_at], current scale, weighted and raw histories).

    Restoring both into a fresh service makes it answer {e byte-identically}
    to the uninterrupted original: previously-solved problems hit the
    cache ([cached: true]), and [estimate]/[replan] continue from the
    exact fitted state — the property [test/test_net.ml] pins down.

    {2 File format}

    One header line, then the JSON payload:
    {v CKPTSNAP <version> <crc32-hex> <payload-bytes>\n{...payload...} v}

    The CRC-32 covers the payload bytes, so truncation, bit rot and torn
    writes are all detected before any decoding happens.  {!save} writes
    to a temp file in the same directory, fsyncs, renames, then fsyncs
    the directory (so the rename itself survives a crash) — a crash
    mid-write can only ever leave a stale-but-valid previous snapshot
    plus a temp file that {!load_latest} ignores.

    {2 Compatibility rules}

    - A snapshot with a {e higher} version than {!version} is from a
      newer build: it is skipped (log-and-fall-back), never decoded.
    - Unknown payload fields are ignored, so future minor additions stay
      readable by older builds at the same version.
    - Decoding is total: corrupt, truncated, or adversarial input yields
      [Error _], never an exception. *)

type state = {
  seq : int;  (** requests served when the snapshot was cut *)
  wal_seq : int;
      (** WAL watermark: every WAL record with [seq <= wal_seq] is
          already folded into this snapshot, so recovery replays only
          the suffix past it and compaction may retire the segments it
          covers.  [0] in pre-WAL snapshots and WAL-off servers. *)
  cache : (string * Ckpt_model.Optimizer.plan) list;
      (** plan-cache dump, most recently used first (see
          {!Ckpt_service.Lru_cache.to_list}) *)
  session :
    (Ckpt_adaptive.Rate_estimator.t * Ckpt_adaptive.Cost_estimator.t) option;
}

val version : int

val of_service : ?wal_seq:int -> seq:int -> Ckpt_service.Service.t -> state
(** Capture the service's durable state.  [wal_seq] (default [0]) is the
    highest WAL sequence already applied to the service.  Call while no
    other thread is mutating the service (the server holds its
    coordinator lock). *)

val install : state -> Ckpt_service.Service.t -> int
(** Warm-restart: re-add every cached plan (oldest first, so recency
    survives) and restore the telemetry session.  Returns the number of
    plans installed.  Entries beyond the target cache's capacity simply
    evict oldest-first, so restoring into a smaller cache keeps the
    hottest plans. *)

val encode : state -> string
(** The full file image, header included. *)

val decode : string -> (state, string) result
(** Total inverse of {!encode}: checks magic, version, length and CRC
    before parsing, and validates every plan and estimator field.  Any
    failure — including a future version — is [Error _]. *)

val save :
  ?keep:int -> ?inject:(string -> unit) -> dir:string -> state -> (string, string) result
(** Atomically write [dir/snapshot-<seq>.ckpt] (temp + fsync + rename +
    directory fsync), creating [dir] if needed, then prune all but the
    [keep] (default 4) newest snapshots.  Returns the path written.
    A non-benign directory-fsync failure is an [Error] (the file is
    valid but its directory entry may not survive a power cut, so the
    cut must not retire WAL segments).  [inject] is the durability
    chaos hook: it is called at each stage boundary
    ([snapshot-write], [snapshot-fsync], [snapshot-rename],
    [snapshot-dir-fsync], [snapshot-prune]) and may raise to simulate a
    crash ({!Wal.Injected_crash} propagates) or an I/O failure
    ([Unix_error] becomes this function's [Error]).  Never raises
    otherwise. *)

val clean_tmp : ?log:(string -> unit) -> dir:string -> unit -> int
(** Remove leftover [*.tmp] files from saves killed mid-write (they are
    invisible to {!load_latest} but would accumulate).  Returns the
    number removed; missing directory is [0].  Call once at startup
    before serving. *)

val load_latest : ?log:(string -> unit) -> dir:string -> unit -> state option
(** Newest snapshot in [dir] that decodes cleanly.  Invalid files are
    reported through [log] (default silent) and skipped — a damaged
    latest snapshot falls back to the previous one, and a missing or
    unreadable directory falls back to [None] (cold start).  Never
    raises. *)
