(* In-memory spans for the traced replay.

   A span is (name, start, stop, parent, request id), recorded around a
   call into one layer's public entry point.  Spans live in growable
   arrays for the whole run and are written out once, at the end, so the
   recording itself does no I/O.  With recording off, [enter]/[leave]
   only return, which is what the untraced replay measures against. *)

(* Span names, one per layer boundary the replay times. *)
let names =
  [| "request"; "net.frame_read"; "net.frame_write"; "net.envelope"; "service.parse";
     "service.encode"; "planner.key"; "planner.lookup"; "planner.insert"; "solver.plan";
     "solver.batch"; "solver.sweep"; "adaptive.observe"; "adaptive.calibrate";
     "adaptive.estimate"; "adaptive.replan"; "wal.append"; "wal.snapshot" |]

let id_of name =
  let rec find i =
    if i = Array.length names then invalid_arg ("Spans.id_of: " ^ name)
    else if names.(i) = name then i
    else find (i + 1)
  in
  find 0

type t = {
  mutable on : bool;
  mutable len : int;
  mutable name : int array;
  mutable start : int array;  (* ns, monotonic *)
  mutable stop : int array;
  mutable parent : int array;  (* span index, -1 for a root *)
  mutable req : int array;
  mutable open_ : int;  (* innermost open span, -1 when none *)
  mutable request : int;  (* request id stamped on new spans *)
}

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let create ?(on = true) () =
  let n = 1024 in
  { on; len = 0; name = Array.make n 0; start = Array.make n 0; stop = Array.make n 0;
    parent = Array.make n (-1); req = Array.make n 0; open_ = -1; request = 0 }

let grow t =
  let bigger a fill =
    let b = Array.make (2 * Array.length a) fill in
    Array.blit a 0 b 0 t.len;
    b
  in
  t.name <- bigger t.name 0;
  t.start <- bigger t.start 0;
  t.stop <- bigger t.stop 0;
  t.parent <- bigger t.parent (-1);
  t.req <- bigger t.req 0

let set_request t id = t.request <- id

(* Open a span named [name] under the innermost open span; returns its
   index (or -1 with recording off). *)
let enter t name =
  if not t.on then -1
  else begin
    if t.len = Array.length t.name then grow t;
    let i = t.len in
    t.len <- i + 1;
    t.name.(i) <- name;
    t.parent.(i) <- t.open_;
    t.req.(i) <- t.request;
    t.open_ <- i;
    t.start.(i) <- now_ns ();
    i
  end

let leave t i =
  if i >= 0 then begin
    t.stop.(i) <- now_ns ();
    t.open_ <- t.parent.(i)
  end

let span t name f =
  let i = enter t name in
  match f () with
  | v ->
      leave t i;
      v
  | exception e ->
      leave t i;
      raise e

let length t = t.len

(* Self time of every span: its duration minus the part of its interval
   its children cover (children clipped to the parent, overlaps merged).
   The replay's children are sequential, but the arithmetic does not
   rely on that. *)
let self_times t =
  let children = Array.make t.len [] in
  for i = t.len - 1 downto 0 do
    let p = t.parent.(i) in
    if p >= 0 then children.(p) <- i :: children.(p)
  done;
  Array.init t.len (fun i ->
      let lo = t.start.(i) and hi = t.stop.(i) in
      let clipped =
        List.filter_map
          (fun c ->
            let a = max lo t.start.(c) and b = min hi t.stop.(c) in
            if b > a then Some (a, b) else None)
          children.(i)
        |> List.sort compare
      in
      let covered, _ =
        List.fold_left
          (fun (sum, reach) (a, b) ->
            let a = max a reach in
            if b > a then (sum + (b - a), b) else (sum, reach))
          (0, min_int) clipped
      in
      hi - lo - covered)

(* Self time (ns) and span count per name. *)
let totals t =
  let self = self_times t in
  let ns = Array.make (Array.length names) 0 and count = Array.make (Array.length names) 0 in
  for i = 0 to t.len - 1 do
    ns.(t.name.(i)) <- ns.(t.name.(i)) + self.(i);
    count.(t.name.(i)) <- count.(t.name.(i)) + 1
  done;
  (ns, count)

(* One tab-separated line per span: name, start, stop (ns), parent index,
   request id. *)
let write t path =
  Out_channel.with_open_text path (fun oc ->
      output_string oc "name\tstart_ns\tstop_ns\tparent\trequest\n";
      for i = 0 to t.len - 1 do
        Printf.fprintf oc "%s\t%d\t%d\t%d\t%d\n" names.(t.name.(i)) t.start.(i) t.stop.(i)
          t.parent.(i) t.req.(i)
      done)
