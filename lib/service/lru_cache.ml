(* Hashtbl for O(1) lookup + intrusive doubly-linked list for O(1)
   recency updates and eviction.  [head] is most recently used. *)

type 'a node = {
  key : string;
  mutable value : 'a;
  mutable prev : 'a node option;  (* towards head / MRU *)
  mutable next : 'a node option;  (* towards tail / LRU *)
}

type 'a t = {
  tbl : (string, 'a node) Hashtbl.t;
  cap : int;
  mutable head : 'a node option;
  mutable tail : 'a node option;
  mutable evicted : int;
}

let create ~capacity =
  if capacity < 1 then invalid_arg "Lru_cache.create: capacity < 1";
  { tbl = Hashtbl.create (2 * capacity); cap = capacity; head = None; tail = None; evicted = 0 }

let capacity t = t.cap
let length t = Hashtbl.length t.tbl
let mem t k = Hashtbl.mem t.tbl k

let unlink t node =
  (match node.prev with Some p -> p.next <- node.next | None -> t.head <- node.next);
  (match node.next with Some n -> n.prev <- node.prev | None -> t.tail <- node.prev);
  node.prev <- None;
  node.next <- None

let push_front t node =
  node.next <- t.head;
  node.prev <- None;
  (match t.head with Some h -> h.prev <- Some node | None -> t.tail <- Some node);
  t.head <- Some node

let find t k =
  match Hashtbl.find_opt t.tbl k with
  | None -> None
  | Some node ->
      unlink t node;
      push_front t node;
      Some node.value

let evict_lru t =
  match t.tail with
  | None -> ()
  | Some node ->
      unlink t node;
      Hashtbl.remove t.tbl node.key;
      t.evicted <- t.evicted + 1

let add t k v =
  (match Hashtbl.find_opt t.tbl k with
  | Some node ->
      node.value <- v;
      unlink t node;
      push_front t node
  | None ->
      let node = { key = k; value = v; prev = None; next = None } in
      Hashtbl.add t.tbl k node;
      push_front t node);
  if Hashtbl.length t.tbl > t.cap then evict_lru t

let to_list t =
  let rec walk acc = function
    | None -> List.rev acc
    | Some node -> walk ((node.key, node.value) :: acc) node.next
  in
  walk [] t.head

let evictions t = t.evicted
