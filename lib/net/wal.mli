(** CRC32-framed, append-only write-ahead log for stateful service ops.

    The WAL is level 1 of the server's own two-level persistence
    schedule: every state-mutating line ([observe] / [calibrate] /
    [replan]) is appended — and fsynced per the group-commit policy —
    {e before} the op is applied and acked, while the coarser {!Snapshot}
    images are level 2.  Recovery installs the newest valid snapshot and
    replays the WAL suffix past the snapshot's [wal_seq] watermark.

    {2 On-disk format}

    A WAL directory holds numbered segments [wal-<seq>.log], where
    [<seq>] is the first record sequence the segment was opened for.
    Each record is

    {v W <seq> <payload-bytes> <crc32-hex>\n<payload>\n v}

    with the CRC taken over the payload only.  Appends go to the newest
    segment; a fresh segment is started on every {!open_} (so a torn
    tail from a previous life is never appended after) and whenever the
    current segment exceeds [segment_bytes].

    {2 Reading and torn tails}

    {!load} replays segments in name order and record order, stopping at
    the {e first} record that fails to parse or checksum — everything
    from that point on (including later segments) is reported in
    [dropped_records]/[skipped_segments] rather than replayed.  The torn
    record itself was never acked under [fsync_batch = 1]; with a larger
    batch, up to [fsync_batch - 1] acked records may be lost to a crash
    — that relaxation is the documented group-commit trade-off.

    Segments that a later life writes after the torn record do hold
    acked records, and a recovery that stops at the tear would drop
    them.  So {!open_} first makes the disk hold exactly what {!load}
    replays: it removes every segment past the first bad record and
    cuts that segment back to its good prefix, syncing both, before it
    starts the new segment.  Records past a bad record are never
    replayed, before the repair or after it.

    {2 Failure semantics}

    An fsync failure erases the unsynced suffix (ftruncate back to the
    last synced offset) and surfaces [Error] so the caller can refuse
    the ack; if even the truncate fails the log marks itself dead and
    every later append fails fast.  Injected {!Ckpt_chaos.Chaos.Durability}
    faults reproduce all of these paths deterministically; an injected
    process crash raises {!Injected_crash}, which test harnesses treat
    as [kill -9]. *)

exception Injected_crash of string
(** Raised by an injected [Crash]/[Torn] durability fault.  The argument
    names the step (["append"], ["fsync"], ["segment-create"],
    ["retire"], or a snapshot stage).  Only ever raised when a fault
    hook is wired in — production servers without chaos never see it. *)

type fault_hook = op:string -> Ckpt_chaos.Chaos.fault option
(** Consulted once per durability step, in coordinator order.  Return
    [Some fault] to apply that fault's semantics to the step. *)

type config = {
  dir : string;
  fsync_batch : int;  (** fsync after this many unsynced records; >= 1 *)
  fsync_interval_ms : float;
      (** {!flush_if_due} also fsyncs once this many ms have passed
          since the last sync with records pending; [0.] = every call *)
  segment_bytes : int;  (** rotate the segment once it grows past this *)
}

val config :
  ?fsync_batch:int ->
  ?fsync_interval_ms:float ->
  ?segment_bytes:int ->
  dir:string ->
  unit ->
  config
(** Defaults: [fsync_batch = 1] (strict: every acked record is durable),
    [fsync_interval_ms = 50.], [segment_bytes = 1 lsl 20].
    @raise Invalid_argument on a non-positive batch or segment size. *)

type scan = {
  records : (int * string) list;  (** (seq, payload), in sequence order *)
  dropped_records : int;
      (** torn/garbage tail records ignored (truncate-at-first-bad) *)
  skipped_segments : int;  (** unreadable or post-tear segments skipped *)
  segments : int;  (** segment files present *)
  bytes : int;  (** total bytes across segment files *)
  last_seq : int;  (** highest replayable seq, [0] when none *)
}

val load : ?log:(string -> unit) -> dir:string -> unit -> scan
(** Read-only scan of a WAL directory; never raises.  A missing
    directory is an empty scan. *)

type t

val open_ :
  ?inject:fault_hook -> ?log:(string -> unit) -> config -> next_seq:int -> (t, string) result
(** Open for appending: creates [config.dir] if needed, scans existing
    segments (for compaction bookkeeping), cuts the log at its first bad
    record (see above) and starts a fresh segment for [next_seq].
    [next_seq] must be greater than every replayable seq already on
    disk — callers derive it from {!load} and the snapshot watermark.
    [Error _] when the directory cannot be created or the cut fails. *)

val append : t -> string -> (int, string) result
(** [append t payload] assigns the next sequence number, writes the
    record and applies the group-commit policy.  [Ok seq] means the
    record is on disk (and synced, when the batch boundary was reached
    or [fsync_batch = 1]); the caller may now apply and ack the op.
    [Error _] means the op must be refused: the record is not (and will
    never be) replayed.  Payloads must not contain newlines — they are
    protocol lines, which never do.
    @raise Injected_crash under an injected crash/torn fault. *)

val flush : t -> (unit, string) result
(** Force an fsync of any unsynced records (drain, pre-snapshot). *)

val flush_if_due : t -> unit
(** Time-based group commit: fsync if records have been pending longer
    than [fsync_interval_ms].  Errors are absorbed into the health
    counters (the affected records were erased; their ops were acked
    only under a relaxed batch, which documents exactly this window). *)

val retire : t -> upto:int -> int
(** Compaction at a snapshot cut: seal the current segment and delete
    every sealed segment whose records all have [seq <= upto] (the
    snapshot's watermark).  Returns the number of segments deleted.
    Idempotent — a crash mid-retire just leaves segments for the next
    cut.  @raise Injected_crash under an injected crash fault. *)

val close : t -> unit
(** Flush (best effort) and close the segment fd. *)

val abort : t -> unit
(** Close without flushing — simulates process death in tests: an
    unsynced tail is left exactly as [kill -9] would leave it. *)

(** {1 Introspection} *)

val next_seq : t -> int

val synced_seq : t -> int
(** Highest seq known durable, [0] when none. *)

val segments : t -> int
(** Sealed + current segment files. *)

val bytes : t -> int
(** Bytes across those files. *)

val appended : t -> int
(** Records appended this process life. *)

val fsyncs : t -> int
(** Successful fsyncs this process life. *)

val errors : t -> int
(** Append/fsync/rotate failures this life. *)

val last_error : t -> string option

val dead : t -> bool
(** [true] once the log has failed unrecoverably. *)
