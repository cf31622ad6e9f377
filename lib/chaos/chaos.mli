(** Seeded, deterministic fault injection for the planning stack.

    A chaos policy decides, at well-defined {e injection sites}, whether a
    given unit of work is hit by a fault and which fault it is.  The
    decision is a {b pure function of [(seed, site, index, attempt)]}: it
    is derived by hashing those four values into a fresh {!Ckpt_numerics.Rng}
    stream, never by consuming a shared mutable stream.  Consequently the
    fault schedule is independent of worker count, scheduling order and
    wall-clock time — two runs with the same seed and the same logical
    request stream inject exactly the same faults, whether the pool runs
    1 or 64 domains.  That determinism contract is what makes the chaos
    soak tests reproducible and the 1/2/4-worker response-identity
    property testable at all.

    Injection sites and the faults they can produce:

    - {!Pool} — a pool worker {e crashes} (the domain running the chunk
      dies and must be respawned by the pool's supervisor) or {e stalls}
      (sleeps for a bounded duration before computing the item);
    - {!Solver} — an [Optimizer] solve is forced to report {e divergence}
      (outer fixed point denied convergence) or a {e non-finite} wall
      clock (the NaN-guard path);
    - {!Line} — a protocol line is {e corrupted} (random byte flips) or
      {e truncated} before parsing;
    - {!Telemetry} — an observed telemetry event's timestamp is {e skewed}
      by a bounded signed offset;
    - {!Net} — an accepted server connection is {e dropped} (closed
      before any byte is served), {e slowed} (every response write is
      delayed), {e half-closed} (the write side is shut down after the
      first response) or fed {e garbage} bytes ahead of its first
      request line;
    - {!Durability} — a step on the persistence path (WAL append, fsync,
      snapshot write, compaction unlink) {e crashes} the process at a
      record boundary, {e tears} a write mid-record, forces a
      {e short write} (the write loop must resume), or makes the
      {e fsync fail}.  Indices count durability steps in coordinator
      order, so the schedule is deterministic for a given request
      stream.

    Each applied fault is recorded (thread-safely) so tests and the
    [ckpt_chaos] driver can compare schedules across runs and report
    injection counts. *)

type site = Pool | Solver | Line | Telemetry | Net | Durability

type fault =
  | Crash  (** kill the pool worker before computing the item *)
  | Stall of float  (** sleep this many seconds (pool compute or net response) *)
  | Diverge  (** deny outer fixed-point convergence *)
  | Non_finite  (** poison the solver's wall-clock estimate *)
  | Corrupt  (** flip random bytes in the protocol line *)
  | Truncate  (** cut the protocol line short *)
  | Skew of float  (** shift a telemetry timestamp by this many seconds *)
  | Drop  (** close the connection before serving anything *)
  | Half_close  (** shut the connection's write side after one response *)
  | Garbage  (** prepend garbage bytes to the connection's first line *)
  | Torn  (** crash mid-write, leaving a partial record/file behind *)
  | Short_write  (** force the write to land in several short pieces *)
  | Fsync_fail  (** make the step's fsync report failure *)

type spec = {
  seed : int;
  pool_crash : float;  (** P(worker crash) per (item, attempt) *)
  pool_stall : float;  (** P(worker stall) per (item, attempt) *)
  stall_max_s : float;  (** stall/slow durations are uniform in [0, max] *)
  solver_diverge : float;  (** P(forced divergence) per solve attempt *)
  solver_non_finite : float;  (** P(poisoned estimate) per solve attempt *)
  line_corrupt : float;  (** P(byte corruption) per protocol line *)
  line_truncate : float;  (** P(truncation) per protocol line *)
  telemetry_skew : float;  (** P(timestamp skew) per telemetry event *)
  skew_max_s : float;  (** skews are uniform in [-max, +max] *)
  net_drop : float;  (** P(connection dropped) per accepted connection *)
  net_slow : float;  (** P(slow responses) per accepted connection *)
  net_half_close : float;  (** P(half-close) per accepted connection *)
  net_garbage : float;  (** P(garbage prefix) per accepted connection *)
  dur_crash : float;  (** P(crash at a durability step boundary) *)
  dur_torn : float;  (** P(torn write: partial bytes, then crash) *)
  dur_short : float;  (** P(forced short write) per durability step *)
  dur_fsync : float;  (** P(fsync failure) per durability step *)
}

val spec :
  ?seed:int ->
  ?stall_max_s:float ->
  ?skew_max_s:float ->
  ?rate:float ->
  ?durability_rate:float ->
  unit ->
  spec
(** [spec ~rate ()] is the uniform policy used by the soak tests: every
    site fires with total probability [rate] (default [0.1]), split
    evenly between the site's fault kinds.  [seed] defaults to [0],
    [stall_max_s] to [2e-3] (long enough to reorder domains, short
    enough for tests), [skew_max_s] to [30.].  The {!Durability} site is
    governed separately by [durability_rate] (default [0.], i.e. off):
    durability faults kill or degrade the process by design, so only
    suites prepared to restart the server opt in. *)

val disabled : spec
(** All probabilities zero — threading [disabled] must be observably
    identical to passing no chaos policy at all. *)

type t
(** A chaos policy: an immutable {!spec} plus a mutex-protected record of
    the faults applied so far. *)

exception Killed_worker
(** Raised inside a pool worker to simulate the domain dying.  [Pool]'s
    worker loop treats it as a crash: the worker exits and the supervisor
    spawns a replacement.  Never leaks to [Pool.map] callers. *)

exception Injected_crash of string
(** An injected process crash at a durability step (the argument names
    it), re-exported as [Ckpt_net.Wal.Injected_crash].  Test harnesses
    treat it as [kill -9], so handlers that answer other exceptions as
    errors let this one unwind. *)

val create : spec -> t
(** @raise Invalid_argument if a probability is outside [0, 1], the two
    kinds at one site sum above [1], or a bound is negative/non-finite. *)

val spec_of : t -> spec

val draw : t -> site:site -> index:int -> attempt:int -> fault option
(** The pure decision function — no recording, no side effects.  Equal
    [(spec.seed, site, index, attempt)] always yield equal faults. *)

(** {1 Site helpers}

    These wrap {!draw}, record the applied fault, and apply any
    side-effect the fault calls for (stalls sleep here, so callers other
    than the pool never need [Unix]). *)

val pool_fault : t -> index:int -> attempt:int -> [ `Proceed | `Crash ]
(** Decide the fate of pool work item [index] on its [attempt]-th try
    (0-based; retries after a crash bump the attempt, so an unlucky item
    cannot crash forever — injection also hard-caps at {!max_crashes}
    consecutive crashes per item).  A stall sleeps before returning
    [`Proceed]. *)

val max_crashes : int
(** Per-item cap on consecutive injected crashes (guarantees progress
    even under [pool_crash = 1.]). *)

val solver_fault : t -> index:int -> attempt:int -> fault option
(** Fault for solve request [index] on retry [attempt]: [Some Diverge],
    [Some Non_finite] or [None]. *)

val mangle_line : t -> index:int -> string -> string option
(** [mangle_line t ~index line] is [Some mangled] when the line-site
    fault fires for [index] (byte flips for [Corrupt], a shorter prefix
    for [Truncate]), [None] to deliver the line intact. *)

val skew : t -> index:int -> float
(** Signed timestamp offset (seconds) for telemetry event [index]; [0.]
    when no fault fires (nothing is recorded in that case). *)

val net_fault : t -> index:int -> fault option
(** Fault for accepted connection [index] (assigned in accept order):
    [Some Drop], [Some (Stall d)] (slow the connection's responses by
    [d] seconds each), [Some Half_close], [Some Garbage] or [None].
    Unlike {!pool_fault}, no sleep happens here — the server applies
    the slow-down where it writes. *)

val durability_fault : t -> index:int -> fault option
(** Fault for durability step [index] (assigned in coordinator order
    across WAL appends, fsyncs, snapshot stages and compaction):
    [Some Crash], [Some Torn], [Some Short_write], [Some Fsync_fail] or
    [None].  The caller — [lib/net]'s durability layer — applies the
    fault's semantics; this only decides and records it. *)

(** {1 Injection log} *)

type record = { site : site; index : int; attempt : int; fault : fault }

val records : t -> record list
(** Applied faults, sorted by [(site, index, attempt)] so logs from runs
    with different worker counts compare equal.  The log keeps at most
    {!log_capacity} entries; counters keep counting past that. *)

val log_capacity : int
val injected : t -> int
(** Total number of faults applied so far. *)

val counts : t -> (site * fault * int) list
(** Applied-fault totals grouped by site and fault kind (durations and
    offsets ignored for grouping), sorted. *)

val site_name : site -> string
val fault_name : fault -> string

val to_json : t -> Ckpt_json.Json.t
(** Summary object: seed, total, and per-site/kind counts. *)

val pp : Format.formatter -> t -> unit
