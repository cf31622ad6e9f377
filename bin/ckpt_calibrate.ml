(* Calibrate the checkpoint model from an SCR/FTI-style event log and
   compare ready-to-serve plans.

   Reads a line-oriented toolkit log (see lib/calibrate/README.md for
   the grammar), phase-accounts it into per-level checkpoint/restart
   cost samples and failure exposure, fits the paper's parameters
   through the adaptive estimators, and prints the provenance plus a
   Young vs. Daly vs. ML-optimal plan comparison.

   Examples:
     ckpt_calibrate --logfile examples/scr_session.log --stats --compare
     ckpt_calibrate --logfile scr.log --emit-problem fitted.json
     ckpt_calibrate --self-check *)

open Cmdliner
open Ckpt_model
module C = Ckpt_calibrate
module Spec = Ckpt_failures.Failure_spec
module Json = Ckpt_json.Json
module Service = Ckpt_service.Service
module Server = Ckpt_net.Server

let ( let* ) = Result.bind

let read_lines path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | line -> go (line :: acc)
    | exception End_of_file ->
        close_in ic;
        List.rev acc
  in
  go []

let build_levels costs pfs_alpha =
  match costs with
  | [] -> Level.fti_fusion
  | costs ->
      let n = List.length costs in
      Array.of_list
        (List.mapi
           (fun i c ->
             if i = n - 1 && pfs_alpha > 0. then
               Level.v ~name:"pfs" (Overhead.linear ~eps:c ~alpha:pfs_alpha)
             else Level.v ~name:(Printf.sprintf "level%d" (i + 1)) (Overhead.constant c))
           costs)

let build_template te_days rates_s baseline kappa n_star alloc costs pfs_alpha =
  let* spec =
    try Ok (Spec.of_string ~baseline_scale:baseline rates_s)
    with Invalid_argument m -> Error m
  in
  let levels = build_levels costs pfs_alpha in
  let* () =
    if Spec.levels spec = Array.length levels then Ok ()
    else
      Error
        (Printf.sprintf "%d failure rates for %d levels" (Spec.levels spec)
           (Array.length levels))
  in
  Ok
    { Optimizer.te = te_days *. 86400.;
      speedup = Speedup.quadratic ~kappa ~n_star;
      levels;
      alloc;
      spec }

let write_json path json =
  let oc = open_out path in
  output_string oc (Json.to_string ~pretty:true json);
  output_char oc '\n';
  close_out oc

let run_calibrate ~logfile ~template ~prior_strength ~min_samples ~coverage
    ~stats ~emit_problem ~compare =
  let parsed = C.Scr_log.parse (read_lines logfile) in
  let* fitted =
    C.Fit.calibrate ~prior_strength ~min_samples ~coverage ~template parsed
  in
  let r = fitted.C.Fit.report in
  Format.printf "%s: %d lines (%d parsed, %d skipped, %d blank)@." logfile
    r.C.Fit.lines r.C.Fit.parsed r.C.Fit.skipped r.C.Fit.blank;
  if stats then begin
    Format.printf "@[<v>%a@]@." C.Fit.pp_report r;
    let shown = ref 0 in
    List.iter
      (fun skip ->
        if !shown < 10 then begin
          incr shown;
          Format.printf "skipped %a@." C.Scr_log.pp_skip skip
        end)
      parsed.C.Scr_log.skips;
    if List.length parsed.C.Scr_log.skips > 10 then
      Format.printf "... and %d more skips@."
        (List.length parsed.C.Scr_log.skips - 10)
  end
  else
    Format.printf
      "exposure: %.4g core-seconds, %d failures across %d levels (prior \
       strength %g)@."
      r.C.Fit.exposure_core_seconds r.C.Fit.total_failures
      (Array.length r.C.Fit.levels) prior_strength;
  Option.iter
    (fun path ->
      write_json path (Codec.problem_to_json fitted.C.Fit.problem);
      Format.printf "calibrated problem written to %s@." path)
    emit_problem;
  if compare then begin
    let c = C.Compare.run fitted.C.Fit.problem in
    Format.printf "@.%a@." C.Compare.pp c
  end;
  Ok ()

(* ---------------- self-check ---------------- *)

let expect what cond = if cond then Ok () else Error ("self-check: " ^ what)

let parser_checks () =
  let garbage =
    [ "\x00\x01\xffbinary";
      "t=nan event=COMPUTE secs=1";
      "t=1 event=NO_SUCH_EVENT";
      "t=2 event=COMPUTE secs=-3";
      "t=3 event=CHECKPOINT";
      "# a comment";
      "";
      "t=4 event=checkpoint secs=12 level=2" ]
  in
  let g = C.Scr_log.parse garbage in
  let* () =
    expect "garbage skip accounting"
      (List.length g.C.Scr_log.skips = 5
      && g.C.Scr_log.blank = 2
      && List.length g.C.Scr_log.records = 1
      && g.C.Scr_log.lines = 8)
  in
  expect "skips carry line numbers"
    (List.for_all (fun s -> s.C.Scr_log.line >= 1) g.C.Scr_log.skips)

let roundtrip_checks problem lines =
  let parsed = C.Scr_log.parse lines in
  let* () = expect "synthetic log parses cleanly" (parsed.C.Scr_log.skips = []) in
  let* fitted = C.Fit.calibrate ~template:problem parsed in
  let nb = problem.Optimizer.spec.Spec.baseline_scale in
  let truth = Spec.total_rate_per_second problem.Optimizer.spec ~scale:nb in
  let fitted_total =
    Spec.total_rate_per_second fitted.C.Fit.problem.Optimizer.spec ~scale:nb
  in
  let* () =
    expect
      (Printf.sprintf "fitted total rate %.3e implausible vs true %.3e"
         fitted_total truth)
      (fitted_total > 0.2 *. truth && fitted_total < 5. *. truth)
  in
  (* The acceptance property: the ML plan emitted from the calibrated
     problem, priced under the TRUE parameters, is within 5% of the
     plan solved directly on the truth. *)
  let n = 1024. in
  let true_plan = Optimizer.ml_ori_scale ~n problem in
  let cal_plan = Optimizer.ml_ori_scale ~n fitted.C.Fit.problem in
  let priced =
    Ckpt_adaptive.Predict.wall_clock problem ~xs:cal_plan.Optimizer.xs ~n
  in
  let gap =
    Float.abs (priced -. true_plan.Optimizer.wall_clock)
    /. true_plan.Optimizer.wall_clock
  in
  let* () =
    expect
      (Printf.sprintf "calibrated plan off by %.1f%% under true parameters"
         (100. *. gap))
      (Float.is_finite gap && gap < 0.05)
  in
  Ok fitted

(* The calibrate op must answer over a live loopback socket. *)
let socket_checks problem lines =
  let service = Service.create ~workers:0 () in
  let server =
    Server.start ~config:{ Server.default_config with Server.port = 0 } service
  in
  let finally () =
    Server.stop server;
    Server.join server;
    Service.shutdown service
  in
  Fun.protect ~finally @@ fun () ->
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  let* responses =
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, Server.port server));
        let oc = Unix.out_channel_of_descr fd in
        let ic = Unix.in_channel_of_descr fd in
        let request =
          Json.Obj
            [ ("op", Json.String "calibrate");
              ("id", Json.Number 1.);
              ("problem", Codec.problem_to_json problem);
              ("log", Json.List (List.map (fun s -> Json.String s) lines));
              ("compare", Json.Bool true) ]
        in
        let bad = {|{"op":"calibrate","id":2,"problem":|} ^ Json.to_string (Codec.problem_to_json problem) ^ {|,"log":"not-a-list"}|} in
        let estimate = {|{"op":"estimate","id":3}|} in
        try
          List.iter
            (fun line ->
              output_string oc line;
              output_char oc '\n';
              flush oc)
            [ Json.to_string request; bad; estimate ];
          Ok (List.init 3 (fun _ -> input_line ic))
        with End_of_file | Sys_error _ -> Error "self-check: socket closed early")
  in
  let* r1, r2, r3 =
    match List.map Json.parse_result responses with
    | [ Ok a; Ok b; Ok c ] -> Ok (a, b, c)
    | _ -> Error "self-check: responses are not JSON"
  in
  let* () =
    expect "calibrate over the socket"
      (Json.member "ok" r1 = Some (Json.Bool true)
      && Json.string_field "op" r1 = Some "calibrate"
      && Json.member "plan" r1 <> None
      && Json.member "fitted_problem" r1 <> None
      && Json.member "provenance" r1 <> None
      && Json.member "comparison" r1 <> None)
  in
  let* () =
    expect "structured error on bad calibrate input"
      (Json.member "ok" r2 = Some (Json.Bool false)
      &&
      match Option.bind (Json.member "error" r2) (Json.string_field "code") with
      | Some "invalid-request" -> true
      | _ -> false)
  in
  let* () =
    expect "estimate sees the calibrated session"
      (Json.member "ok" r3 = Some (Json.Bool true))
  in
  expect "op_counts routed the ops"
    (List.assoc_opt "calibrate" (Server.op_counts server) = Some 2
    && List.assoc_opt "estimate" (Server.op_counts server) = Some 1)

let self_check () =
  let problem = C.Synth.demo_problem () in
  let config = C.Synth.demo_config problem in
  let lines = C.Synth.session_lines ~runs:4 ~seed:42 config in
  let* () = parser_checks () in
  let* _fitted = roundtrip_checks problem lines in
  let* () = socket_checks problem lines in
  Ok ()

let run self logfile te_days rates baseline kappa n_star alloc costs pfs_alpha
    coverage prior_strength min_samples stats emit_problem compare =
  if self then
    match self_check () with
    | Ok () ->
        print_endline "self-check ok";
        Ok ()
    | Error m -> Error m
  else
    match logfile with
    | None -> Error "--logfile FILE is required (or use --self-check)"
    | Some logfile -> (
        let* template =
          build_template te_days rates baseline kappa n_star alloc costs pfs_alpha
        in
        try
          run_calibrate ~logfile ~template ~prior_strength ~min_samples
            ~coverage ~stats ~emit_problem ~compare
        with Invalid_argument m | Failure m | Sys_error m -> Error m)

let logfile =
  Arg.(value & opt (some string) None
       & info [ "logfile"; "l" ] ~docv:"FILE"
           ~doc:"SCR/FTI-style event log, one key=value event per line.")

(* The template defaults mirror the committed examples/scr_session.log
   fixture (Synth.demo_problem), so the README one-liner works as-is. *)
let te_days =
  Arg.(value & opt float (1024. *. 3600. /. 86400.)
       & info [ "te-days" ] ~doc:"Workload in core-days.")

let rates =
  Arg.(value & opt string "24-18-12-6"
       & info [ "rates" ] ~doc:"Prior per-level failures/day at the baseline scale.")

let baseline =
  Arg.(value & opt float 1024.
       & info [ "baseline" ] ~doc:"Baseline scale N_b the prior rates are quoted at.")

let kappa = Arg.(value & opt float 0.46 & info [ "kappa" ] ~doc:"Speedup slope at the origin.")
let n_star = Arg.(value & opt float 1e6 & info [ "n-star" ] ~doc:"Ideal (peak) scale in cores.")
let alloc = Arg.(value & opt float 10. & info [ "alloc" ] ~doc:"Allocation period A in seconds.")

let costs =
  Arg.(value & opt (list float) []
       & info [ "costs" ] ~doc:"Constant per-level checkpoint costs (overrides FTI defaults).")

let pfs_alpha =
  Arg.(value & opt float 0.
       & info [ "pfs-alpha" ] ~doc:"Linear scale coefficient of the last level's cost.")

let coverage =
  Arg.(value & opt float 0.95 & info [ "coverage" ] ~doc:"Confidence-interval coverage in (0, 1 - 2^-52].")

let prior_strength =
  Arg.(value & opt float 0.
       & info [ "prior-strength" ]
           ~doc:"Core-seconds of pseudo-exposure shrinking rates toward the prior.")

let min_samples =
  Arg.(value & opt int 3
       & info [ "cost-min-samples" ]
           ~doc:"Observations required before a level's cost law is re-calibrated.")

let stats =
  Arg.(value & flag
       & info [ "stats" ] ~doc:"Print the full phase-accounting and fit provenance report.")

let emit_problem =
  Arg.(value & opt (some string) None
       & info [ "emit-problem" ] ~docv:"FILE"
           ~doc:"Write the calibrated problem as JSON.")

let compare =
  Arg.(value & flag
       & info [ "compare" ] ~doc:"Print the Young vs. Daly vs. ML-optimal plan comparison.")

let self_check_flag =
  Arg.(value & flag & info [ "self-check" ] ~doc:"Run the built-in end-to-end check and exit.")

let cmd =
  let doc = "Calibrate the multilevel checkpoint model from toolkit logs" in
  let term =
    Term.(const run $ self_check_flag $ logfile $ te_days $ rates $ baseline
          $ kappa $ n_star $ alloc $ costs $ pfs_alpha $ coverage
          $ prior_strength $ min_samples $ stats $ emit_problem $ compare)
  in
  Cmd.v (Cmd.info "ckpt-calibrate" ~doc) Term.(term_result' term)

let () = exit (Cmd.eval cmd)
