(** A fixed-capacity least-recently-used cache, string keys to ['a]:
    the service's plan cache.

    Capacity-bounded so a long-running service cannot grow without
    limit, LRU so sweep refinements that revisit recent grid points stay
    resident.  Recency is exact and global: a miss evicts the one least
    recently used binding.  Purely a data structure — hit/miss
    accounting lives in {!Metrics}, which owns the single source of
    truth the [stats] response reports.

    Not domain-safe, and it takes no lock: the planner touches the cache
    only from its coordinating thread (which the socket server
    serializes under its coordinator lock), and the snapshot layer saves
    it under that lock and restores it before the server accepts.
    Workers receive already-missed queries and never see it. *)

type 'a t

val create : capacity:int -> 'a t
(** @raise Invalid_argument when [capacity < 1]. *)

val capacity : 'a t -> int
val length : 'a t -> int

val find : 'a t -> string -> 'a option
(** [find t k] returns the cached value and marks [k] most recently
    used. *)

val mem : 'a t -> string -> bool
(** Membership without touching recency. *)

val add : 'a t -> string -> 'a -> unit
(** [add t k v] binds [k], replacing any existing binding (and marking
    it most recently used); when the cache is over capacity the least
    recently used binding is evicted. *)

val to_list : 'a t -> (string * 'a) list
(** All bindings, most recently used first; does not touch recency.
    Re-adding them in reverse order into a fresh cache reproduces the
    same recency order — what the snapshot layer relies on, so a warm
    restart evicts the same keys the original would have. *)

val evictions : 'a t -> int
(** Total bindings evicted by capacity pressure since [create]. *)
