(** The scenario fuzzer: generate → simulate under the invariant auditor →
    shrink failures to minimal scenarios → save byte-for-byte replays.

    On the packet backend every case runs fully traced with an {!Audit}
    attached, a periodic probe calling
    {!Tcpflow.Sender.check_inflight_invariant} on every sender, and an
    end-of-run {!Audit.finalize} against the live queue/link counters; the
    analytic backends are checked on their outcomes (see {!run_scenario}).
    Cases are pure functions of their scenario, so campaigns fan out over
    {!Sim_engine.Exec} worker domains without changing any verdict. *)

type outcome =
  | Pass
  | Violation of Audit.violation
  | Crash of string  (** The simulation raised; the message is the exn. *)

val outcome_to_string : outcome -> string

type fault = {
  fault_name : string;
  fault_apply : Sim_engine.Trace.record -> Sim_engine.Trace.record;
}
(** A deterministic, stateless event-stream corruption, interposed between
    the hub and the auditor. Faults simulate accounting bugs without
    patching the simulator: they validate that the auditor catches a class
    of defect and give the shrinker something real to minimize. *)

val faults : fault list
(** The canonical corruption models: ["inflight"] (skews the in-flight
    count stamped on some ACKs, as an accounting drift would) and
    ["delivered-rewind"] (makes cumulative delivered bytes regress). *)

val fault_named : string -> fault option

(** {1 Backends}

    Every entry point takes the backend to fuzz as a value.
    {!Sim_backend.packet} runs the audited path above: the case runs fully
    traced under the {!Audit}, and a [fault] corrupts its event stream.
    The fluid and ODE backends have no event stream to audit, so their
    cases check outcome-level invariants instead: every reported field
    finite, per-flow goodput non-negative and summing to at most capacity
    (1% headroom), the mean queue within the buffer, the outcome exactly
    reproducible on a re-run, and — for single-flow scenarios — fluid/ODE
    parity: both backends re-run with a half-horizon warm-up (excluding
    their differently-modelled startups) must agree on goodput within 10%
    of capacity. Violations are reported as {!Audit.violation}s under the
    [backend-*] invariant ids. A [fault] with an analytic backend raises
    [Invalid_argument]. *)

val audited : Sim_backend.t -> bool
(** Whether the backend runs the audited event-stream path (the packet
    backend), the only one a [fault] applies to. *)

val run_scenario :
  ?fault:fault -> backend:Sim_backend.t -> Scenario.t -> outcome
(** Run one scenario on [backend] and return its verdict. An analytic
    backend runs {!Scenario.to_spec}; its rejection (an unsupported CCA in
    a hand-written scenario) is a [Crash]. Deterministic: equal scenarios
    (and fault) yield equal outcomes. *)

val shrink : ?fault:fault -> backend:Sim_backend.t -> Scenario.t -> Scenario.t
(** Greedily minimize a failing scenario: repeatedly adopt the first
    {!Scenario.shrink_candidates} variant that still fails (any violation
    or crash counts), until none does or the step budget (64) runs out.
    The simplest-CCA collapse stays within the backend's supported names.
    Returns the input unchanged if it does not fail. *)

type case = {
  case_index : int;  (** Position in the generated batch. *)
  case_scenario : Scenario.t;
  case_outcome : outcome;
}

type campaign = {
  total : int;
  passed : int;
  failures : case list;  (** In batch order; empty on a clean campaign. *)
}

val campaign :
  ?fault:fault ->
  backend:Sim_backend.t ->
  ?jobs:int ->
  count:int ->
  seed:int ->
  unit ->
  campaign
(** Generate [count] scenarios from [seed] over the backend's supported
    CCAs and run them on [jobs] worker domains (default 1). Verdicts are
    independent of [jobs]. The packet backend supports every registered
    CCA; the analytic ones a subset, so the same seed draws different (but
    still deterministic) batches there. *)

val replay :
  ?fault:fault ->
  backend:Sim_backend.t ->
  string ->
  (Scenario.t * outcome, string) result
(** [replay ~backend path] loads a replay file and re-runs it. *)
