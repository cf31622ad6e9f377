(** A blocking multi-producer multi-consumer FIFO queue.

    The channel between the service's coordinating domain and its worker
    domains: plain OCaml 5 [Mutex]/[Condition] over a [Queue], no
    dependencies beyond the standard library.  [pop] blocks until an
    item arrives or the queue is closed and drained, which gives the
    pool a clean shutdown protocol (close, then join). *)

type 'a t

exception Closed
(** Raised by {!push} after {!close}. *)

val create : unit -> 'a t

val push : 'a t -> 'a -> unit
(** Enqueue and wake one waiting consumer.  @raise Closed. *)

val pop : 'a t -> 'a option
(** Dequeue, blocking while the queue is empty and open; [None] once the
    queue is closed {e and} drained (remaining items are still
    delivered). *)

val close : 'a t -> unit
(** Idempotent; wakes every blocked consumer. *)
