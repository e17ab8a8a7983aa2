(** A pure propagation-delay element: delivers each packet to the next hop
    after its flow's one-way delay (supporting the paper's multi-RTT
    experiments, §4.5).

    Deliveries ride one calendar lane per distinct delay, not per flow: the
    simulator's merge loop scans every lane on every event and lanes are
    never unregistered, so a lane per flow would make each event cost grow
    with every flow a run ever attached. Flows sharing a delay share a lane
    and stay FIFO on it. *)

type t

val create :
  sim:Sim_engine.Sim.t ->
  packets:Packet.table ->
  deliver:(Packet.t -> unit) ->
  t
(** [packets] is the table that issues the handles this pipe carries; the
    pipe reads each packet's flow from it. *)

val attach : t -> flow:int -> delay:float -> unit
(** Route [flow]'s packets through the lane for [delay], registering that
    lane on first use. Re-attaching retunes the flow; packets already in
    flight keep their delivery time. Raises [Invalid_argument] on a
    negative flow id or a negative (or NaN) delay. *)

val detach : t -> flow:int -> unit
(** Forget [flow]'s delay. Packets of a flow that is not attached pass with
    zero delay. *)

val send : t -> Packet.t -> unit

val in_flight : t -> int
(** Packets currently propagating. *)
