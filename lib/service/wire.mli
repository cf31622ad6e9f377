(** Zero-tree wire fastpath for the hot protocol shapes.

    The service's steady-state traffic is [plan] / [batch-plan] /
    [sweep] requests answered with plan payloads.  Routing every line
    through the {!Ckpt_json.Json.t} tree costs two tree materializations
    per request (parse, then response build) that together dominate the
    non-solver allocation profile.  This module removes both:

    {ul
    {- {!parse_request} scans the raw line and builds
       {!Protocol.query} values directly, allocating only what it
       returns: each object is read in a loop into local slots, keys and
       enum strings are compared in place, and an [op] naming any other
       op stops the scan where it stands.  It accepts a strict subset of
       the tree grammar — no escape sequences, no unknown or duplicate
       fields, scalar ids — and falls back to {!Protocol.parse_request}
       on any deviation or validation failure, so its observable
       behaviour is exactly the tree parser's.  Numbers are read by
       {!Ckpt_json.Float_digits.read} over the same character span the
       tree lexer consumes, as the tree lexer reads them: every float
       is bit-identical to the tree path, and to [float_of_string].}
    {- The [write_*] encoders stream responses into a caller-supplied
       (reusable) [Buffer.t], byte-identical to
       [Json.to_string (Protocol.*_response ...)].}} *)

val parse_request : string -> Protocol.envelope
(** Drop-in replacement for {!Protocol.parse_request}: same envelopes,
    same errors, same floats; only faster on well-formed solver-bound
    lines. *)

val write_plan_response : Buffer.t -> ?id:Ckpt_json.Json.t -> Protocol.answer -> unit
(** Byte-identical to [Json.to_string (Protocol.plan_response ?id a)]. *)

val write_batch_plan_response :
  Buffer.t -> ?id:Ckpt_json.Json.t -> (Protocol.answer, Protocol.error) result array -> unit
(** Byte-identical to [Json.to_string (Protocol.batch_plan_response ?id points)]. *)

val write_sweep_response :
  Buffer.t ->
  ?id:Ckpt_json.Json.t ->
  param:Protocol.sweep_param ->
  (float * (Protocol.answer, Protocol.error) result) array ->
  unit
(** Byte-identical to
    [Json.to_string (Protocol.sweep_response ?id ~param points)]. *)
