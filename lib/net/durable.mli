(** The server's persistence layer: WAL (level 1) under snapshots
    (level 2), plus recovery, compaction, health accounting and the
    model-driven [--durability auto] tuner.

    This module makes the server an instance of the paper's own
    two-level checkpoint model: the cheap-frequent level is an fsync'd
    WAL record per stateful op, the expensive-rare level is a full
    {!Snapshot} of cache + estimators, and {!auto_tune} literally feeds
    the measured costs and a crash rate into {!Ckpt_model.Optimizer.solve}
    to pick both intervals.

    {2 Recovery order (also the durability contract)}

    On {!create}:
    + leftover [*.tmp] files from a save killed mid-write are removed;
    + the newest snapshot that decodes cleanly is installed (older ones
      are fallbacks, a corrupt-only directory is a cold start);
    + the WAL is scanned and every record with
      [seq > snapshot.wal_seq] is replayed through
      {!Ckpt_service.Service.handle_line_string}, in order, with the
      persist hook unset (replay must not re-log) — a torn tail
      truncates the replay at the first bad record;
    + the log is cut on disk at that record, so what it holds is what
      was replayed ({!Wal.open_});
    + a fresh WAL segment is opened past every sequence seen, and the
      service's persist/stats hooks are installed.

    After that, an acked [observe]/[calibrate]/[replan] is on disk
    before its effect exists in memory, so it survives [kill -9];
    an op answered with a [durability] error was {e not} applied.
    A successful snapshot cut retires every WAL segment whose records
    it covers (compaction). *)

module Service = Ckpt_service.Service
module Json = Ckpt_json.Json

type config = {
  snapshot_dir : string option;
  snapshot_keep : int;
  wal : Wal.config option;
  auto : Json.t option;
      (** diagnostics of an [--durability auto] solve, echoed verbatim
          into the health payload (report-only) *)
}

val config :
  ?snapshot_dir:string ->
  ?snapshot_keep:int ->
  ?wal:Wal.config ->
  ?auto:Json.t ->
  unit ->
  config

type t

val create :
  ?chaos:Ckpt_chaos.Chaos.t ->
  ?inject:Wal.fault_hook ->
  ?log:(string -> unit) ->
  config ->
  Service.t ->
  (t, string) result
(** Run recovery (see above) against [service] and open the layer for
    writing.  [inject] overrides the chaos-derived durability fault
    hook (tests use it to hit an exact crash point); when absent and
    [chaos] is given, faults come from
    {!Ckpt_chaos.Chaos.durability_fault} with indices counting
    durability steps.  [Error _] means the WAL directory is configured
    but unusable — the server must refuse to start rather than ack
    undurable ops.
    @raise Wal.Injected_crash under an injected crash fault. *)

val persist : t -> string -> (unit, Ckpt_service.Protocol.error) result
(** The service persist hook: append the line to the WAL (group-commit
    policy applies).  [Ok ()] iff the op may be applied and acked.
    Installed by {!create}; exposed for harnesses that drive a service
    directly. *)

val cut : t -> service:Service.t -> seq:int -> (string, string) result
(** Snapshot now (caller holds the coordinator): flush the WAL, save a
    snapshot carrying the current WAL watermark, and on success retire
    the WAL segments it covers.  Failures are counted and surfaced in
    {!persistence}. *)

val tick : t -> unit
(** Time-based WAL group commit; call from any periodic loop. *)

val close : t -> unit
(** Flush and close the WAL (drain path; the final snapshot is the
    server's call to make). *)

val abort : t -> unit
(** Close without flushing — test harness process-death simulation. *)

(** {1 Introspection} *)

type persistence = {
  wal_enabled : bool;
  snapshots_enabled : bool;
  last_snapshot_seq : int;  (** request seq of the last cut, [-1] none *)
  last_snapshot_age_s : float;  (** seconds since that cut, [-1.] none *)
  snapshots_written : int;  (** successful cuts this life *)
  snapshot_failures : int;  (** failed cuts this life *)
  wal_segments : int;
  wal_bytes : int;
  wal_appended : int;
  wal_fsyncs : int;
  wal_errors : int;
  wal_synced_seq : int;
  replayed : int;  (** WAL records replayed at startup *)
  replay_dropped : int;  (** bad records/segments skipped at startup *)
  tmp_removed : int;  (** leftover [*.tmp] files removed at startup *)
  restored_plans : int;  (** cache entries installed from the snapshot *)
  last_error : string option;  (** most recent snapshot/WAL error *)
}

val persistence : t -> persistence
val health_json : t -> Json.t
(** The [stats] payload's ["durability"] object (includes the [auto]
    diagnostics when present). *)

val seq_base : t -> int
(** Restored snapshot's request seq ([0] on cold start) — the server's
    snapshot numbering continues from here. *)

val restored_plans : t -> int

(** {1 Model-driven tuning ([--durability auto])} *)

type auto_choice = {
  fsync_batch : int;
  snapshot_interval : int;  (** in requests, at [op_rate] *)
  fsync_cost_s : float;
  snapshot_cost_s : float;
  crash_rate_per_day : float;
  wal_loss_rate_per_day : float;
  op_rate : float;
  predicted_overhead : float;  (** [E(T_w)/T_e - 1] at the chosen plan *)
}

val measure_fsync_cost : dir:string -> (float, string) result
(** Median seconds per [write + fsync] of a WAL-record-sized probe file
    in [dir] (created if needed; the probe is removed). *)

val measure_snapshot_cost :
  dir:string -> Service.t -> (float, string) result
(** Seconds to cut one real snapshot of the service's current state
    into [dir].  The snapshot written is valid and kept. *)

val auto_tune :
  ?wal_loss_rate_per_day:float ->
  ?op_rate:float ->
  fsync_cost_s:float ->
  snapshot_cost_s:float ->
  crash_rate_per_day:float ->
  unit ->
  auto_choice
(** Solve the paper's two-level model for the server itself: level 1 =
    WAL fsync at the measured cost, level 2 = snapshot at the measured
    cost, failure rates [crash_rate_per_day] (process crash, recovered
    by WAL replay) and [wal_loss_rate_per_day] (default [crash/20]:
    storage-level loss, recovered from the snapshot), horizon one day
    at [op_rate] requests/second (default [1000.]).  The optimal
    interval counts map back to a group-commit batch (clamped to
    [\[1, 4096\]]) and a snapshot interval in requests.  Note the model
    optimizes total expected overhead assuming lost-and-rolled-back
    work is re-submitted — a batch above 1 widens the documented
    acked-loss window to [batch - 1] records. *)

val auto_choice_json : auto_choice -> Json.t
