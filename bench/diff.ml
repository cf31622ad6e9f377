(* Compare a fresh BENCH_results.json against a committed baseline.

   Usage:  diff.exe BASELINE.json FRESH.json [--threshold PCT]

   For every kernel present in both files, the primary mean time
   (sequential.mean_ns, or wall.mean_ns for the planner kernels) and its
   minor-heap allocation per rep are compared; a kernel worse than
   baseline by more than the threshold (default 25%) on either is a
   regression and the exit status is 1.  Allocation also gets an
   absolute slack of 64 words per rep, so that kernels that allocate
   next to nothing are gated too.  Kernels only
   on one side are reported but never fail the run — the set changes as
   benchmarks are added.  Machine-to-machine noise is why the threshold
   is generous: this is a tripwire for order-of-magnitude mistakes
   (a re-boxed inner loop, an accidentally-quadratic pass), not a
   substitute for looking at the numbers. *)

module J = Ckpt_json.Json

let fail fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 2) fmt

let load path =
  let ic = try open_in path with Sys_error m -> fail "cannot open %s: %s" path m in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  match J.parse_result s with
  | Ok doc -> doc
  | Error m -> fail "%s: %s" path m

(* Each kernel contributes the gated metrics its entry carries: the
   primary mean time and its allocation per rep, a trajectory entry's
   speedup, and a solver kernel's iteration counts. *)
type metric = {
  kernel : string;
  what : string;
      (* "mean_ns" | "minor_words_per_rep" | "speedup" | "inner_iterations"
         | "f_evals" *)
  value : float;
  better : [ `Lower | `Higher ];
  unit_ : string;
  scale : float;  (* value / scale is printed *)
  lenience : float;  (* the threshold is multiplied by this *)
  slack : float;  (* absolute room on top of the relative threshold *)
}

let kernels doc =
  match Option.bind (J.member "benchmarks" doc) J.to_list with
  | None -> fail "missing benchmarks list"
  | Some entries ->
      List.concat_map
        (fun entry ->
          match J.string_field "kernel" entry with
          | None -> []
          | Some kernel ->
              let mean timing =
                Option.bind (J.member timing entry) (J.float_field "mean_ns")
              in
              let primary =
                match mean "sequential" with Some m -> Some m | None -> mean "wall"
              in
              (* Allocation per rep is the one machine-independent
                 metric here: wall time drifts with the box, but a
                 kernel that suddenly allocates more re-boxed something.
                 Same lenience as mean time, plus 64 words of absolute
                 slack: a kernel that allocates next to nothing (2 words
                 per rep) would trip a percentage alone on one extra
                 closure, while a real regression there (a string per
                 float, hundreds of words) still fails. *)
              let words timing =
                Option.bind (J.member timing entry)
                  (J.float_field "minor_words_per_rep")
              in
              let primary_words =
                match words "sequential" with Some w -> Some w | None -> words "wall"
              in
              (* Worker-scaling trajectory entries also gate their
                 speedup_vs_1_worker: a scaling collapse (a new lock on
                 the fan-out path) can hide inside acceptable absolute
                 times.  Scaling curves move more between machines than
                 times do, so the gate runs at double the threshold. *)
              let speedup =
                if J.member "trajectory" entry = Some (J.Bool true) then
                  J.float_field "speedup_vs_1_worker" entry
                else None
              in
              (* Solver kernels carry an "iterations" object: summed
                 inner iterations and Eq. 24 evaluations for the batch
                 the kernel times.  These are deterministic — identical
                 on every machine — so they run at 0.4x the threshold
                 (CI's --threshold 25 makes the effective gate 10%): an
                 iteration regression is a solver change, not noise. *)
              let iter_field f =
                Option.bind (J.member "iterations" entry) (J.float_field f)
              in
              List.filter_map Fun.id
                [ Option.map
                    (fun value ->
                      { kernel; what = "mean_ns"; value; better = `Lower;
                        unit_ = "ms"; scale = 1e6; lenience = 1.; slack = 0. })
                    primary;
                  Option.map
                    (fun value ->
                      { kernel; what = "minor_words_per_rep"; value;
                        better = `Lower; unit_ = "kw"; scale = 1e3; lenience = 1.;
                        slack = 64. })
                    primary_words;
                  Option.map
                    (fun value ->
                      { kernel; what = "speedup"; value; better = `Higher;
                        unit_ = "x"; scale = 1.; lenience = 2.; slack = 0. })
                    speedup;
                  Option.map
                    (fun value ->
                      { kernel; what = "inner_iterations"; value;
                        better = `Lower; unit_ = "it"; scale = 1.;
                        lenience = 0.4; slack = 0. })
                    (iter_field "inner");
                  Option.map
                    (fun value ->
                      { kernel; what = "f_evals"; value; better = `Lower;
                        unit_ = "ev"; scale = 1.; lenience = 0.4; slack = 0. })
                    (iter_field "f_evals") ])
        entries

let metric_key m = m.kernel ^ "/" ^ m.what

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let threshold = ref 25. in
  let paths = ref [] in
  let rec parse = function
    | [] -> ()
    | "--threshold" :: v :: rest ->
        (match float_of_string_opt v with
        | Some t when t > 0. -> threshold := t
        | _ -> fail "--threshold wants a positive number, got %s" v);
        parse rest
    | p :: rest ->
        paths := p :: !paths;
        parse rest
  in
  parse args;
  let baseline_path, fresh_path =
    match List.rev !paths with
    | [ b; f ] -> (b, f)
    | _ -> fail "usage: diff.exe BASELINE.json FRESH.json [--threshold PCT]"
  in
  let baseline = kernels (load baseline_path) in
  let fresh = kernels (load fresh_path) in
  let regressions = ref 0 in
  List.iter
    (fun base ->
      match List.find_opt (fun m -> metric_key m = metric_key base) fresh with
      | None -> Printf.printf "~ %-40s only in baseline\n" (metric_key base)
      | Some fresh_m ->
          let ratio = if base.value > 0. then fresh_m.value /. base.value else 1. in
          (* Positive pct = worse, whichever direction "worse" is. *)
          let pct =
            match base.better with
            | `Lower -> (ratio -. 1.) *. 100.
            | `Higher -> (1. -. ratio) *. 100.
          in
          (* Worse than the baseline moved by the threshold, and by the
             slack in the same direction. *)
          let allowed = !threshold *. base.lenience /. 100. in
          let regressed =
            match base.better with
            | `Lower -> fresh_m.value > (base.value *. (1. +. allowed)) +. base.slack
            | `Higher -> fresh_m.value < (base.value *. (1. -. allowed)) -. base.slack
          in
          if regressed then incr regressions;
          Printf.printf "%s %-40s %10.3f %s -> %10.3f %s  (%+.1f%% worse)\n"
            (if regressed then "!" else " ")
            (metric_key base) (base.value /. base.scale) base.unit_
            (fresh_m.value /. fresh_m.scale) fresh_m.unit_ pct)
    baseline;
  List.iter
    (fun m ->
      if not (List.exists (fun b -> metric_key b = metric_key m) baseline) then
        Printf.printf "~ %-40s only in fresh\n" (metric_key m))
    fresh;
  if !regressions > 0 then begin
    Printf.printf "%d metric(s) regressed by more than %.0f%%\n" !regressions
      !threshold;
    exit 1
  end
  else Printf.printf "no metric regressed by more than %.0f%%\n" !threshold
