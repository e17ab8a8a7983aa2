(** A fixed-capacity transmission link that drains a {!Droptail_queue}.

    The link serializes one packet at a time at [rate_bps]; when a
    transmission completes, the packet is handed to [deliver] and the next
    packet (if any) starts. Senders must call {!kick} after enqueuing so an
    idle link wakes up. Packet sizes are read from the queue's packet
    table. *)

type t

val create :
  sim:Sim_engine.Sim.t ->
  rate_bps:Sim_engine.Units.rate_bps ->
  queue:Droptail_queue.t ->
  deliver:(Packet.t -> unit) ->
  t

val rate_bps : t -> Sim_engine.Units.rate_bps

val kick : t -> unit
(** Start transmitting if idle and the queue is non-empty. Safe to call at
    any time. *)

val busy : t -> bool
(** Whether a packet is in service (being serialized). *)

val delivered_packets : t -> int
val delivered_bytes : t -> int

val busy_seconds : t -> Sim_engine.Units.seconds
(** Cumulative transmission time since creation. Callers compute utilization
    over a window by differencing two snapshots. *)
