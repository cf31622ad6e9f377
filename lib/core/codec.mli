(** JSON serialization of optimizer problems and plans.

    Lets the CLI tools hand results to each other and to external
    tooling: [ckpt-opt --output plan.json] writes a problem+plan bundle,
    [ckpt-simulate --plan plan.json] replays it.  Only serializable
    speedup forms (not {!Speedup.form.Custom}) and affine overhead laws
    (H = 0 or H = N) round-trip; anything else raises. *)

val speedup_to_json : Speedup.t -> Ckpt_json.Json.t
(** @raise Invalid_argument on [Custom] speedups. *)

val speedup_of_json : Ckpt_json.Json.t -> (Speedup.t, string) result
(** [Error] names the field when a parameter is outside its speedup's
    range: [kappa], [n_star] and [peak] must be positive,
    [serial_fraction] in \[0, 1). *)

val overhead_to_json : Overhead.t -> Ckpt_json.Json.t
(** @raise Invalid_argument on custom baseline functions. *)

val overhead_of_json : Ckpt_json.Json.t -> (Overhead.t, string) result

val problem_to_json : Optimizer.problem -> Ckpt_json.Json.t
val problem_of_json : Ckpt_json.Json.t -> (Optimizer.problem, string) result
(** [Error] also for an empty [levels] list.  Failure rates and overhead
    laws are checked by their constructors, which raise
    [Invalid_argument]. *)

val plan_to_json : Optimizer.plan -> Ckpt_json.Json.t
val plan_of_json : Ckpt_json.Json.t -> (Optimizer.plan, string) result
(** The breakdown, iteration counters and flags round-trip; plans loaded
    from JSON are complete for simulation and reporting. *)

val write_plan : Buffer.t -> Optimizer.plan -> unit
(** Stream the plan's compact JSON into [buf], byte-identical to
    [Json.to_string (plan_to_json p)] — the service fast path encodes
    plans without building the tree. *)

val bundle_to_json : problem:Optimizer.problem -> plan:Optimizer.plan -> Ckpt_json.Json.t
(** The [{"problem": ..., "plan": ...}] document the CLIs exchange. *)

val bundle_of_json :
  Ckpt_json.Json.t -> (Optimizer.problem * Optimizer.plan, string) result
