(** A bulk-data TCP sender.

    The sender owns the transport machinery the CCAs plug into:

    - sequence/ACK bookkeeping with SACK-like per-segment state, kept in
      a ring over the live window (no per-segment allocation),
    - RACK-style loss detection (a segment still unacknowledged when a
      later-sent segment has been cumulatively or selectively acknowledged
      is declared lost — exact on our reorder-free FIFO path),
    - NewReno-style single CC notification per loss round, with an RTO
      backstop,
    - BBR-style delivery-rate sampling (per-packet [delivered] snapshots),
    - pacing for rate-based CCAs and pure ACK clocking otherwise.

    Flows are backlogged by default (the paper studies long flows); pass
    [data_limit_bytes] to model the short flows of the §5 "more diverse
    workloads" discussion — the sender stops after delivering that much and
    {!completed} turns true.

    A [t] is a {e slot}, not just a flow: after its tenant completes,
    {!rebind} resets the per-flow state and activates a new flow in place,
    reusing every allocated container (segment and send-order rings,
    packet pool, timer and ACK callbacks) so open-loop churn stays
    allocation-free in steady state. ACKs come back over the dumbbell's
    reverse lane for the flow's delay ({!Netsim.Dumbbell.send_ack}), which
    hands them to the ACK handler [create]/[rebind] register for the
    tenant's flow id. All tenants of one slot must share a reverse-path
    delay, so a late ACK of the previous tenant stays FIFO with the new
    tenant's on one lane ([rebind] enforces this). *)

type t

val create :
  net:Netsim.Dumbbell.t ->
  flow:int ->
  cc:Cca.Cc_types.t ->
  ?mss:int ->
  ?start_time:Sim_engine.Units.seconds ->
  ?data_limit_bytes:int ->
  ?on_complete:(unit -> unit) ->
  ?trace:Sim_engine.Trace.t ->
  unit ->
  t
(** Wires a sender and its receiver into [net] for flow id [flow]. The
    sender begins transmitting at [start_time] (default 0) and, when
    [data_limit_bytes] is given, stops once that much data is delivered, at
    which point [on_complete] (if any) runs — after all per-ACK state
    updates, so the callback may tear the flow down and release the slot.

    When [trace] is given, the sender emits [Send]/[Ack]/[Seg_lost]/
    [Rto_fire]/[Recovery_enter]/[Recovery_exit]/[Cc_state_change] events
    into it, plus [Flow_start] at activation and [Flow_complete] (carrying
    the FCT) at completion; without one, every instrumentation site is a
    single [match] on [None] — no allocation, no behavioural change. *)

val rebind :
  t -> flow:int -> cc:Cca.Cc_types.t -> ?data_limit_bytes:int -> unit -> unit
(** [rebind t ~flow ~cc ?data_limit_bytes ()] points the (finished) slot at
    a new flow id, installs its receiver on the slot's network, resets all
    per-flow transport state and activates the flow at the current sim time
    (emitting [Flow_start] when traced). Raises [Invalid_argument] if the
    current tenant has not finished, or if the new flow's reverse delay
    differs from the slot's. The caller must have registered [flow]'s path
    via {!Netsim.Dumbbell.add_flow} first. *)

val deactivate : t -> unit
(** Cancel the slot's pending start/RTO/pacing timers and mark it finished
    without a completion event — teardown for flows cut off by the end of a
    simulation. Idempotent; no-op on an already-finished slot. *)

val completed : t -> bool
(** True once a data-limited flow has delivered everything (always false
    for bulk flows). *)

val finished : t -> bool
(** True once the slot's tenant completed or was {!deactivate}d: ACK
    processing is gated off and the slot is eligible for {!rebind}. *)

val activation_time : t -> float
(** Sim time at which the current tenant started sending; [nan] before. *)

val completion_time : t -> float
(** Sim time at which the current tenant completed; [nan] before. *)

val fct : t -> float
(** [completion_time - activation_time]; [nan] until completed. *)

val size_limit_bytes : t -> int
(** The tenant's transfer size; -1 for bulk (unlimited) flows. *)

val set_on_complete : t -> (unit -> unit) -> unit
(** Replace the completion callback (e.g. when a pooled slot changes
    owner). *)

val flow : t -> int
val cc : t -> Cca.Cc_types.t

val mss : t -> int

val next_seq : t -> int
(** The next fresh sequence number: segments [0 .. next_seq - 1] have been
    transmitted at least once. *)

val cum_ack : t -> int
(** The cumulative-ACK point: every segment below it has been delivered.
    Exposed (with {!next_seq} and {!inflight_bytes}) so the runtime
    invariant auditor can cross-check its event-stream reconstruction
    against the transport's own accounting. *)

val delivered_bytes : t -> float
(** Cumulative bytes delivered (first-time ACKed), the basis for goodput
    measurements. *)

val inflight_bytes : t -> int
val lost_segments : t -> int
val retransmitted_segments : t -> int
val rounds : t -> int
val srtt : t -> float
(** Smoothed RTT; [nan] before the first sample. *)

val min_rtt_observed : t -> float
(** Smallest RTT sample seen; [infinity] before the first sample. *)

val snapshot_delivered : t -> float * float
(** [(now, delivered_bytes)] — convenience for windowed goodput. *)

val rto_backoff : t -> int
(** Consecutive unanswered RTO firings: 0 normally; each firing doubles
    the next interval (capped at 60 s) until a valid ACK resets it. *)

val check_inflight_invariant : t -> unit
(** Fails (with a diagnostic) unless the tracked in-flight byte total
    equals the sum of per-segment outstanding contributions. Cheap enough
    for tests to call at every sample point. *)
