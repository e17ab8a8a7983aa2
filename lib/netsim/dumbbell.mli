(** The paper's topology: N senders share one drop-tail bottleneck; after the
    bottleneck link, packets propagate to per-flow receivers, whose ACKs
    return over an uncongested reverse path.

    Delay budget per flow: the flow's base RTT is split evenly between the
    forward pipe (after the bottleneck) and the reverse (ACK) path, so a
    packet that never queues experiences exactly [base_rtt] between send and
    ACK, plus its own serialization time.

    Both directions are {!Pipe}s, whose calendar lanes are keyed by delay,
    not by flow, so a run whose flows share an RTT has three lanes (link,
    forward, reverse) however many flows attach over its lifetime. Per-flow
    state lives in arrays indexed by flow id; flow ids must be
    non-negative. *)

type t

type flow_spec = { flow : int; base_rtt : Sim_engine.Units.seconds }

val create :
  ?policy:Droptail_queue.policy ->
  ?trace:Sim_engine.Trace.t ->
  sim:Sim_engine.Sim.t ->
  rate_bps:Sim_engine.Units.rate_bps ->
  buffer_bytes:int ->
  flows:flow_spec list ->
  unit ->
  t
(** [policy] defaults to drop-tail (the paper's setting). When [trace] is
    given, every bottleneck drop emits a [Trace.Drop] event (through the
    queue's drop hook, installed at creation) and every successful arrival
    a link-scoped [Trace.Queue_sample] of the resulting occupancy. *)

val sim : t -> Sim_engine.Sim.t
val queue : t -> Droptail_queue.t
val link : t -> Link.t
val rate_bps : t -> Sim_engine.Units.rate_bps

val base_rtt_of : t -> int -> Sim_engine.Units.seconds
(** Base RTT of the given flow id. Raises [Not_found] for unknown flows. *)

val set_receiver : t -> flow:int -> (Packet.t -> unit) -> unit
(** Install the receive callback for a flow. Packets of flows without a
    receiver are counted in {!orphaned} and discarded. A transport's
    receiver typically answers each packet with {!send_ack}. *)

val receiver : t -> flow:int -> (Packet.t -> unit) option
(** The currently installed receive callback (tests use this to detach a
    flow's receiver — black-holing its ACKs — and restore it later). *)

val set_ack_handler : t -> flow:int -> (Packet.t -> unit) -> unit
(** Install the sender-side callback that receives the flow's ACKs (each
    ACK is the acknowledged data packet itself) when they come off the
    reverse path. *)

val send_ack : t -> Packet.t -> unit
(** [send_ack t p] returns the ACK for [p] over the reverse path: it
    reaches the ACK handler of [p]'s flow after the flow's
    {!reverse_delay}. *)

val add_flow : t -> flow:int -> base_rtt:Sim_engine.Units.seconds -> unit
(** Register a flow's path mid-simulation (the open-loop workload layer
    attaches each arriving short flow this way). Idempotent per id: a
    re-registration just updates the RTT. Raises [Invalid_argument] on a
    negative id. *)

val remove_flow : t -> flow:int -> unit
(** Tear a flow down: forget its RTT and receiver. Packets of the flow
    still inside the queue or pipe are counted in {!orphaned} on arrival
    and discarded — the lifecycle analogue of a closed port. The ACK
    handler stays installed, so an ACK already on the reverse path still
    reaches the flow's sender (whose own lifecycle guard discards it). *)

val known_flow : t -> flow:int -> bool
(** Whether the flow id currently has a registered path. *)

val send : t -> Packet.t -> Droptail_queue.verdict
(** Inject a packet at the bottleneck; on [Enqueued], it will eventually be
    delivered to the flow's receiver. The caller learns of drops only through
    ACK feedback, as in a real network (but the verdict is returned for
    instrumentation). *)

val reverse_delay : t -> flow:int -> Sim_engine.Units.seconds
(** One-way delay of the flow's ACK path. *)

val orphaned : t -> int
