type 'a shard = { lock : Mutex.t; store : 'a Lru_cache.t }

type 'a t = {
  shards : 'a shard array;
  mask : int;  (* shard count - 1; count is a power of two *)
}

let is_power_of_two n = n > 0 && n land (n - 1) = 0

(* The default shard count: 8, or the largest power of two that
   leaves every shard at least one entry. *)
let default_shards capacity =
  let rec fit n = if n >= 8 || 2 * n > capacity then n else fit (2 * n) in
  fit 1

let create ?shards ~capacity () =
  let shards = match shards with Some s -> s | None -> default_shards capacity in
  if not (is_power_of_two shards) then
    invalid_arg "Sharded_cache.create: shards must be a positive power of two";
  if capacity < shards then
    invalid_arg "Sharded_cache.create: capacity < shards";
  (* Split the budget evenly; the remainder goes to the first shards so
     the total capacity is exactly what the caller asked for. *)
  let base = capacity / shards and extra = capacity mod shards in
  { shards =
      Array.init shards (fun i ->
          { lock = Mutex.create ();
            store = Lru_cache.create ~capacity:(base + if i < extra then 1 else 0) });
    mask = shards - 1 }

let shards t = Array.length t.shards

(* Keys are the service's 16-hex-char FNV-1a fingerprints: the leading
   nibble is as uniform as any, so it routes.  Non-hex leading characters
   (foreign keys) still land somewhere deterministic. *)
let shard_of t key =
  let nibble =
    if String.length key = 0 then 0
    else
      match key.[0] with
      | '0' .. '9' as c -> Char.code c - Char.code '0'
      | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
      | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
      | c -> Char.code c
  in
  t.shards.(nibble land t.mask)

let with_shard t key f =
  let s = shard_of t key in
  Mutex.lock s.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock s.lock) (fun () -> f s.store)

let find t key = with_shard t key (fun store -> Lru_cache.find store key)
let mem t key = with_shard t key (fun store -> Lru_cache.mem store key)
let add t key v = with_shard t key (fun store -> Lru_cache.add store key v)

let fold_stores t f init =
  Array.fold_left
    (fun acc s ->
      Mutex.lock s.lock;
      Fun.protect ~finally:(fun () -> Mutex.unlock s.lock) (fun () -> f acc s.store))
    init t.shards

let to_list t =
  List.concat (List.rev (fold_stores t (fun acc store -> Lru_cache.to_list store :: acc) []))

let length t = fold_stores t (fun acc store -> acc + Lru_cache.length store) 0
let capacity t = fold_stores t (fun acc store -> acc + Lru_cache.capacity store) 0
let evictions t = fold_stores t (fun acc store -> acc + Lru_cache.evictions store) 0

let clear t =
  Array.iter
    (fun s ->
      Mutex.lock s.lock;
      Fun.protect ~finally:(fun () -> Mutex.unlock s.lock) (fun () ->
          Lru_cache.clear s.store))
    t.shards
