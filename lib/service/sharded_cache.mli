(** A plan cache sharded N ways over {!Lru_cache}, one mutex per shard.

    Sharded by fingerprint prefix, one lock per shard, so concurrent
    lookups of different keys would contend only when their leading
    nibble collides.  Nothing looks up concurrently today: the planner
    touches the cache only from its coordinating thread (which the
    socket server serializes under its coordinator lock), and the
    snapshot layer saves it under that lock and restores it before the
    server accepts.  The locks stay so the cache remains safe to share.
    Recency is tracked per shard; with the uniform FNV-1a fingerprints
    the service uses as keys, per-shard LRU evicts within a hair of
    global LRU.

    Capacity is a global budget split evenly across shards (remainder to
    the first shards), so total capacity is exactly the requested
    figure. *)

type 'a t

val create : ?shards:int -> capacity:int -> unit -> 'a t
(** [shards] must be a positive power of two, and [capacity >= shards]
    so no shard rounds down to zero.  It defaults to 8, or below a
    capacity of 8 to the largest power of two not above the capacity,
    so any positive capacity is accepted.
    @raise Invalid_argument otherwise. *)

val shards : 'a t -> int
val capacity : 'a t -> int
(** Sum of shard capacities — equals the [capacity] given to {!create}. *)

val length : 'a t -> int
(** Total bindings across shards. *)

val find : 'a t -> string -> 'a option
(** [find t k] returns the cached value and marks [k] most recently used
    within its shard. *)

val mem : 'a t -> string -> bool
(** Membership without touching recency. *)

val add : 'a t -> string -> 'a -> unit
(** [add t k v] binds [k] in its shard, evicting that shard's least
    recently used binding on overflow. *)

val to_list : 'a t -> (string * 'a) list
(** All bindings, shard by shard (most recently used first within each
    shard); recency untouched.  The deterministic dump the snapshot
    layer persists: re-{!add}ing a shard's bindings in reverse order
    into a fresh cache reproduces its recency order, so a warm restart
    evicts the same keys the original would have. *)

val evictions : 'a t -> int
(** Total evictions across shards since [create]. *)

val clear : 'a t -> unit
