(** The networked planning server: a TCP front door for
    {!Ckpt_service.Service}.

    An accept loop hands each connection to its own thread; frames are
    newline-delimited JSON ({!Frame}), and every request line is answered
    with exactly one response line from the service — the same protocol
    (and byte-identical responses) as the stdin mode of [ckpt_serve].

    {2 Admission and deadlines}

    The service coordinator is single-threaded (stateful ops require
    line order), so connection threads funnel through one lock.  A
    bounded {!Gate} fronts that funnel: when [max_inflight] requests are
    already queued or executing, new requests are answered immediately
    with [{"ok": false, "error": {"code": "overloaded"}}] instead of
    queueing unboundedly.  A request that does get a slot but cannot
    reach the coordinator within [request_deadline_ms] is answered
    ["deadline-exceeded"].  Idle connections are reaped after
    [idle_timeout_s] (the socket's receive timeout), and response writes
    carry the same bound as a send timeout, so a stalled client cannot
    wedge its thread.

    {2 Durability}

    With [snapshot_dir] set, the server cuts an atomic {!Snapshot} every
    [snapshot_interval] requests and once more on drain; [start]
    warm-restarts from the newest valid snapshot, so a restarted server
    serves previously-solved plans from cache and keeps its telemetry
    session.  Snapshot sequence numbers resume from the restored
    snapshot's [seq], so filenames stay monotonic across restarts and
    pruning (newest-by-name) never favors a previous incarnation's stale
    snapshots over fresh ones.

    With [wal_dir] also set, every stateful op ([observe] / [calibrate]
    / [replan]) is appended to a {!Wal} — and fsynced per the
    [fsync_batch] / [fsync_interval_ms] group-commit policy — before it
    is applied and acked, and recovery becomes snapshot + replay of the
    WAL suffix past the snapshot's watermark ({!Durable} owns the exact
    order).  Each successful snapshot retires the WAL segments it
    covers.  [stats] responses then carry a ["durability"] health
    object, and {!persistence} exposes the same counters in-process.

    {2 Drain}

    {!stop} (also triggered by an in-band [{"op": "shutdown"}] request,
    and by SIGTERM in the binary) begins a graceful drain: the accept
    loop closes the listening socket, every in-flight request completes
    and is answered, connection threads exit after their current
    request, and a final snapshot is cut.  {!join} blocks until the
    drain is complete.  The server does not own the service — callers
    still {!Ckpt_service.Service.shutdown} it afterwards.

    {2 Chaos}

    With a {!Ckpt_chaos.Chaos.t} installed, every accepted connection
    consults the [Net] site (index = accept order): the connection may
    be dropped, slowed, half-closed after its first response, or have
    garbage bytes prepended to its first line.  Faulted connections
    degrade per the framing/error contract; healthy connections are
    unaffected — the soak test's invariant. *)

type config = {
  host : string;  (** bind address, default ["127.0.0.1"] *)
  port : int;  (** [0] picks an ephemeral port (see {!port}) *)
  backlog : int;
  max_inflight : int;  (** admission gate capacity, >= 1 *)
  request_deadline_ms : float;  (** wait-for-coordinator budget *)
  idle_timeout_s : float;  (** per-connection receive/send timeout *)
  max_line_bytes : int;  (** per-line framing bound *)
  snapshot_dir : string option;
  snapshot_interval : int;  (** requests between snapshots; [0] = only on drain *)
  snapshot_keep : int;
  wal_dir : string option;  (** enables the write-ahead log *)
  fsync_batch : int;  (** WAL group-commit batch, >= 1 (1 = strict) *)
  fsync_interval_ms : float;  (** WAL time-based flush bound *)
  chaos : Ckpt_chaos.Chaos.t option;
      (** [Net]-site (per connection) and [Durability]-site (per
          WAL/snapshot step) fault injection (testing only) *)
  durability_inject : Wal.fault_hook option;
      (** overrides the chaos-derived durability hook — tests use it to
          hit one exact crash point *)
  durability_auto : Ckpt_json.Json.t option;
      (** [--durability auto] diagnostics, echoed into [stats] *)
}

val default_config : config
(** Loopback, ephemeral port, 64 in-flight, 30 s deadlines, 1 MiB
    lines, snapshots and WAL off, [fsync_batch = 1]. *)

type t

val start : ?config:config -> Ckpt_service.Service.t -> t
(** Bind, run {!Durable} recovery (tmp cleanup, newest valid snapshot,
    WAL replay past the watermark), and spawn the accept loop.  The
    service must not be driven from elsewhere while the server runs.
    Sets [SIGPIPE] to ignore process-wide: a peer resetting its
    connection must surface as [EPIPE] from the write, never kill the
    process.
    @raise Invalid_argument on nonsensical config values.
    @raise Unix.Unix_error when the address cannot be bound.
    @raise Failure when [wal_dir] is configured but unusable — the
    server refuses to start rather than ack undurable ops. *)

val port : t -> int
(** The actually bound port (resolves [port = 0]). *)

val service : t -> Ckpt_service.Service.t

val restored : t -> int
(** Plans installed from the warm-restart snapshot (0 on a cold start). *)

val persistence : t -> Durable.persistence
(** Persistence health: snapshot age/seq and failure counts, WAL
    segment/byte/fsync/error counters, startup replay accounting — the
    same numbers the [stats] response reports under ["durability"]. *)

val requests : t -> int
(** Requests answered through the socket so far (excludes overloaded
    and deadline rejections, which {!rejections} counts). *)

val rejections : t -> int
(** Requests answered with [overloaded] or [deadline-exceeded]. *)

val op_counts : t -> (string * int) list
(** Requests answered so far grouped by the line's ["op"] field, sorted
    by op name.  The buckets are a closed set: one per
    {!Ckpt_service.Protocol.ops} name, ["shutdown"] for in-band
    shutdown requests (counted even though they never reach the
    service), ["unknown"] for every other op name and ["invalid"] for
    lines whose op could not be read (non-JSON or missing field), so the
    table stays small whatever names clients send.  The server parses
    each line's envelope exactly once, routes from it and hands it to
    the service to answer from, so these counters cost no extra
    parse. *)

val connections : t -> int
(** Connections accepted so far. *)

val draining : t -> bool

val stop : t -> unit
(** Begin a graceful drain; idempotent, returns immediately.
    Async-signal-safe (a single atomic store, no locks taken), so it may
    be called directly from a SIGTERM/SIGINT handler. *)

val join : t -> unit
(** Wait for the drain to complete: accept loop exited, listening
    socket closed, every connection thread joined, final snapshot cut,
    WAL flushed and closed.  Call {!stop} first (or send
    [{"op": "shutdown"}]). *)

val abort : t -> unit
(** Stop and join like {!join} but cut no final snapshot and do not
    flush the WAL: the on-disk state is exactly what [kill -9] at this
    point would have left.  Test harness only — it turns the in-process
    restart property from snapshot granularity into op granularity. *)
