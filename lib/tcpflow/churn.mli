(** Open-loop flow churn: drives a {!Workload.Schedule.t} through a pool of
    reusable {!Sender} slots on a shared dumbbell.

    Each schedule item becomes a fresh, monotonically increasing flow id
    ([base_flow + index] — ids are never reused, so traces and audits stay
    unambiguous), attached to the network at its arrival instant and torn
    down when its last byte is acknowledged. Sender slots are pooled: a
    completing flow releases its slot (LIFO), and the next arrival rebinds
    it instead of allocating transport state, so steady-state churn
    allocates only per-tenant CC state. All churn flows share one CCA and
    one base RTT — a requirement of slot reuse (a slot's tenants share one
    reverse delay, see {!Sender.rebind}) — matching the open-loop
    short-flow population of the workload experiments.

    Determinism: arrivals are chained sim events (one pending arrival at a
    time), per-tenant CC rng streams are split from the sim rng in event
    order, and pool reuse order is a function of completion order — all
    byte-stable for a fixed seed, independent of [--jobs]. *)

type t

val create :
  ?trace:Sim_engine.Trace.t ->
  ?mss:int ->
  net:Netsim.Dumbbell.t ->
  base_flow:int ->
  cca:string ->
  base_rtt:Sim_engine.Units.seconds ->
  schedule:Workload.Schedule.t ->
  unit ->
  t
(** Registers the first arrival with the dumbbell's simulator; nothing
    happens until the sim runs. [base_flow] must leave the static flows'
    ids below it. *)

val schedule : t -> Workload.Schedule.t

val arrived : t -> int
(** Transfers whose arrival instant has passed (flows attached so far). *)

val completed : t -> int
(** Transfers fully acknowledged. *)

val active : t -> int
(** [arrived - completed]: flows currently holding a slot. *)

val slots_created : t -> int
(** Peak concurrency: slots allocated over the run (pool high-water). *)

val delivered_bytes : t -> float
(** Total bytes delivered by completed transfers. *)

val fcts : t -> float array
(** Flow-completion time per schedule item, in schedule order; [nan] for
    transfers the horizon cut off (or that have not yet completed). The
    returned array is live — callers must not mutate it. *)

val flow_of_item : t -> int -> int
val item_of_flow : t -> flow:int -> int
val is_churn_flow : t -> flow:int -> bool

val teardown : t -> unit
(** Deactivate still-running flows (cancelling their timers) and
    unregister them from the dumbbell; their completion records stay
    [nan]. Call after the measurement horizon. *)
