type 'a t = {
  q : 'a Queue.t;
  mutex : Mutex.t;
  nonempty : Condition.t;
  mutable closed : bool;
}

exception Closed

let create () =
  { q = Queue.create (); mutex = Mutex.create (); nonempty = Condition.create (); closed = false }

let with_lock t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let push t x =
  with_lock t (fun () ->
      if t.closed then raise Closed;
      Queue.push x t.q;
      Condition.signal t.nonempty)

let pop t =
  with_lock t (fun () ->
      let rec wait () =
        match Queue.take_opt t.q with
        | Some x -> Some x
        | None ->
            if t.closed then None
            else begin
              Condition.wait t.nonempty t.mutex;
              wait ()
            end
      in
      wait ())

let close t =
  with_lock t (fun () ->
      t.closed <- true;
      Condition.broadcast t.nonempty)
