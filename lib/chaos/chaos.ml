module Rng = Ckpt_numerics.Rng
module Json = Ckpt_json.Json

type site = Pool | Solver | Line | Telemetry | Net | Durability

type fault =
  | Crash
  | Stall of float
  | Diverge
  | Non_finite
  | Corrupt
  | Truncate
  | Skew of float
  | Drop
  | Half_close
  | Garbage
  | Torn
  | Short_write
  | Fsync_fail

type spec = {
  seed : int;
  pool_crash : float;
  pool_stall : float;
  stall_max_s : float;
  solver_diverge : float;
  solver_non_finite : float;
  line_corrupt : float;
  line_truncate : float;
  telemetry_skew : float;
  skew_max_s : float;
  net_drop : float;
  net_slow : float;
  net_half_close : float;
  net_garbage : float;
  dur_crash : float;
  dur_torn : float;
  dur_short : float;
  dur_fsync : float;
}

let spec ?(seed = 0) ?(stall_max_s = 2e-3) ?(skew_max_s = 30.) ?(rate = 0.1)
    ?(durability_rate = 0.) () =
  let half = rate /. 2. in
  let quarter = rate /. 4. in
  let dq = durability_rate /. 4. in
  { seed;
    pool_crash = half;
    pool_stall = half;
    stall_max_s;
    solver_diverge = half;
    solver_non_finite = half;
    line_corrupt = half;
    line_truncate = half;
    telemetry_skew = rate;
    skew_max_s;
    net_drop = quarter;
    net_slow = quarter;
    net_half_close = quarter;
    net_garbage = quarter;
    dur_crash = dq;
    dur_torn = dq;
    dur_short = dq;
    dur_fsync = dq }

let disabled =
  { seed = 0;
    pool_crash = 0.;
    pool_stall = 0.;
    stall_max_s = 0.;
    solver_diverge = 0.;
    solver_non_finite = 0.;
    line_corrupt = 0.;
    line_truncate = 0.;
    telemetry_skew = 0.;
    skew_max_s = 0.;
    net_drop = 0.;
    net_slow = 0.;
    net_half_close = 0.;
    net_garbage = 0.;
    dur_crash = 0.;
    dur_torn = 0.;
    dur_short = 0.;
    dur_fsync = 0. }

type record = { site : site; index : int; attempt : int; fault : fault }

type t = {
  spec : spec;
  lock : Mutex.t;
  mutable log : record list;  (* newest first, capped *)
  mutable logged : int;
  mutable total : int;
}

exception Killed_worker
exception Injected_crash of string

let log_capacity = 65_536
let max_crashes = 25

let check_prob what p =
  if not (Float.is_finite p) || p < 0. || p > 1. then
    invalid_arg (Printf.sprintf "Chaos: %s probability %g outside [0, 1]" what p)

let check_bound what v =
  if not (Float.is_finite v) || v < 0. then
    invalid_arg (Printf.sprintf "Chaos: %s must be finite and >= 0" what)

let create spec =
  check_prob "pool crash" spec.pool_crash;
  check_prob "pool stall" spec.pool_stall;
  check_prob "solver diverge" spec.solver_diverge;
  check_prob "solver non-finite" spec.solver_non_finite;
  check_prob "line corrupt" spec.line_corrupt;
  check_prob "line truncate" spec.line_truncate;
  check_prob "telemetry skew" spec.telemetry_skew;
  check_prob "net drop" spec.net_drop;
  check_prob "net slow" spec.net_slow;
  check_prob "net half-close" spec.net_half_close;
  check_prob "net garbage" spec.net_garbage;
  check_prob "durability crash" spec.dur_crash;
  check_prob "durability torn" spec.dur_torn;
  check_prob "durability short" spec.dur_short;
  check_prob "durability fsync" spec.dur_fsync;
  if spec.net_drop +. spec.net_slow +. spec.net_half_close +. spec.net_garbage > 1. then
    invalid_arg "Chaos: net fault probabilities sum above 1";
  if spec.dur_crash +. spec.dur_torn +. spec.dur_short +. spec.dur_fsync > 1. then
    invalid_arg "Chaos: durability fault probabilities sum above 1";
  if spec.pool_crash +. spec.pool_stall > 1. then
    invalid_arg "Chaos: pool fault probabilities sum above 1";
  if spec.solver_diverge +. spec.solver_non_finite > 1. then
    invalid_arg "Chaos: solver fault probabilities sum above 1";
  if spec.line_corrupt +. spec.line_truncate > 1. then
    invalid_arg "Chaos: line fault probabilities sum above 1";
  check_bound "stall_max_s" spec.stall_max_s;
  check_bound "skew_max_s" spec.skew_max_s;
  { spec; lock = Mutex.create (); log = []; logged = 0; total = 0 }

let spec_of t = t.spec

let site_id = function
  | Pool -> 1
  | Solver -> 2
  | Line -> 3
  | Telemetry -> 4
  | Net -> 5
  | Durability -> 6

let site_name = function
  | Pool -> "pool"
  | Solver -> "solver"
  | Line -> "line"
  | Telemetry -> "telemetry"
  | Net -> "net"
  | Durability -> "durability"

let fault_name = function
  | Crash -> "crash"
  | Stall _ -> "stall"
  | Diverge -> "diverge"
  | Non_finite -> "non-finite"
  | Corrupt -> "corrupt"
  | Truncate -> "truncate"
  | Skew _ -> "skew"
  | Drop -> "drop"
  | Half_close -> "half-close"
  | Garbage -> "garbage"
  | Torn -> "torn"
  | Short_write -> "short-write"
  | Fsync_fail -> "fsync-fail"

(* splitmix64 finalizer: a strong 64-bit mix so that the derived stream
   for (seed, site, index, attempt) is statistically independent of its
   neighbours even though the inputs differ by one bit. *)
let mix64 z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let golden = 0x9E3779B97F4A7C15L

let derive t ~site ~index ~attempt =
  let feed acc v = mix64 (Int64.add (Int64.mul acc golden) v) in
  let key =
    List.fold_left feed
      (mix64 (Int64.of_int t.spec.seed))
      [ Int64.of_int (site_id site); Int64.of_int index; Int64.of_int attempt ]
  in
  Rng.create key

(* Decide a fault from one uniform draw against the site's cumulative
   probabilities; further draws from [rng] parameterize the fault. *)
let decide t rng ~site =
  let s = t.spec in
  let u = Rng.float rng in
  let pick p1 f1 p2 f2 =
    if u < p1 then Some (f1 rng)
    else if u < p1 +. p2 then Some (f2 rng)
    else None
  in
  match site with
  | Pool ->
      pick s.pool_crash
        (fun _ -> Crash)
        s.pool_stall
        (fun rng -> Stall (Rng.float rng *. s.stall_max_s))
  | Solver ->
      pick s.solver_diverge (fun _ -> Diverge) s.solver_non_finite (fun _ ->
          Non_finite)
  | Line ->
      pick s.line_corrupt (fun _ -> Corrupt) s.line_truncate (fun _ -> Truncate)
  | Telemetry ->
      pick s.telemetry_skew
        (fun rng -> Skew ((2. *. Rng.float rng -. 1.) *. s.skew_max_s))
        0.
        (fun _ -> assert false)
  | Net ->
      (* Four kinds at one site: walk the cumulative distribution with the
         same single uniform draw the two-kind sites use. *)
      let c1 = s.net_drop in
      let c2 = c1 +. s.net_slow in
      let c3 = c2 +. s.net_half_close in
      let c4 = c3 +. s.net_garbage in
      if u < c1 then Some Drop
      else if u < c2 then Some (Stall (Rng.float rng *. s.stall_max_s))
      else if u < c3 then Some Half_close
      else if u < c4 then Some Garbage
      else None
  | Durability ->
      let c1 = s.dur_crash in
      let c2 = c1 +. s.dur_torn in
      let c3 = c2 +. s.dur_short in
      let c4 = c3 +. s.dur_fsync in
      if u < c1 then Some Crash
      else if u < c2 then Some Torn
      else if u < c3 then Some Short_write
      else if u < c4 then Some Fsync_fail
      else None

let draw t ~site ~index ~attempt = decide t (derive t ~site ~index ~attempt) ~site

let record t ~site ~index ~attempt fault =
  Mutex.lock t.lock;
  t.total <- t.total + 1;
  if t.logged < log_capacity then begin
    t.log <- { site; index; attempt; fault } :: t.log;
    t.logged <- t.logged + 1
  end;
  Mutex.unlock t.lock

let fire t ~site ~index ~attempt =
  match draw t ~site ~index ~attempt with
  | None -> None
  | Some fault ->
      record t ~site ~index ~attempt fault;
      Some fault

let pool_fault t ~index ~attempt =
  if attempt >= max_crashes then `Proceed
  else
    match fire t ~site:Pool ~index ~attempt with
    | Some Crash -> `Crash
    | Some (Stall s) ->
        if s > 0. then Unix.sleepf s;
        `Proceed
    | Some _ | None -> `Proceed

let solver_fault t ~index ~attempt = fire t ~site:Solver ~index ~attempt

let mangle_line t ~index line =
  let rng = derive t ~site:Line ~index ~attempt:0 in
  match decide t rng ~site:Line with
  | None -> None
  | Some _ when String.length line = 0 -> None
  | Some Corrupt ->
      record t ~site:Line ~index ~attempt:0 Corrupt;
      let b = Bytes.of_string line in
      let flips = 1 + Rng.int rng 3 in
      for _ = 1 to flips do
        Bytes.set b (Rng.int rng (Bytes.length b)) (Char.chr (Rng.int rng 256))
      done;
      Some (Bytes.to_string b)
  | Some Truncate ->
      record t ~site:Line ~index ~attempt:0 Truncate;
      Some (String.sub line 0 (Rng.int rng (String.length line)))
  | Some _ -> assert false

let skew t ~index =
  match fire t ~site:Telemetry ~index ~attempt:0 with
  | Some (Skew d) -> d
  | Some _ | None -> 0.

let net_fault t ~index = fire t ~site:Net ~index ~attempt:0
let durability_fault t ~index = fire t ~site:Durability ~index ~attempt:0

let injected t =
  Mutex.lock t.lock;
  let n = t.total in
  Mutex.unlock t.lock;
  n

let compare_record a b =
  match compare (site_id a.site) (site_id b.site) with
  | 0 -> (
      match compare a.index b.index with
      | 0 -> compare a.attempt b.attempt
      | c -> c)
  | c -> c

let records t =
  Mutex.lock t.lock;
  let log = t.log in
  Mutex.unlock t.lock;
  List.sort compare_record log

(* Group by (site, kind): strip the fault's parameter so that e.g. two
   stalls of different durations count together. *)
let canon = function
  | Stall _ -> Stall 0.
  | Skew _ -> Skew 0.
  | f -> f

let counts t =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun r ->
      let key = (r.site, canon r.fault) in
      Hashtbl.replace tbl key (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key)))
    (records t);
  Hashtbl.fold (fun (site, fault) n acc -> (site, fault, n) :: acc) tbl []
  |> List.sort (fun (s1, f1, _) (s2, f2, _) ->
         match compare (site_id s1) (site_id s2) with
         | 0 -> compare (fault_name f1) (fault_name f2)
         | c -> c)

let to_json t =
  let by_kind =
    List.map
      (fun (site, fault, n) ->
        (site_name site ^ "_" ^ fault_name fault, Json.Number (float_of_int n)))
      (counts t)
  in
  Json.Obj
    (("seed", Json.Number (float_of_int t.spec.seed))
    :: ("injected", Json.Number (float_of_int (injected t)))
    :: by_kind)

let pp ppf t =
  Format.fprintf ppf "@[<v>chaos seed %d: %d faults injected" t.spec.seed
    (injected t);
  List.iter
    (fun (site, fault, n) ->
      Format.fprintf ppf "@ %s/%s: %d" (site_name site) (fault_name fault) n)
    (counts t);
  Format.fprintf ppf "@]"
