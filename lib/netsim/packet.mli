(** Data packets traversing the forward path of the simulated network.

    A packet is an int handle into a per-run {!table}: struct-of-arrays
    columns hold its header and its send-time stamps, so queues and lanes
    store plain ints (no write barrier) and a send/ACK cycle allocates
    nothing. A handle means something only in the table that issued it;
    a dumbbell owns one table per run ({!Dumbbell.packets}).

    Only data packets are modelled as queue-occupying objects; an ACK is
    the acknowledged data packet's own handle travelling back over the
    uncongested reverse path, matching the paper's single-bottleneck setup
    where the ACK path is never the bottleneck.

    The [delivered]/[delivered_time] stamps snapshot the sender's delivery
    state at transmission time; they implement the delivery rate estimator
    that BBR's bandwidth filter consumes.

    {b Lifetime.} {!take} makes a handle live; exactly one {!release} ends
    it, by whichever element consumes the packet without passing it on:
    the sender once its ACK is processed, the bottleneck queue after its
    drop hook has run, the dumbbell for a packet whose flow has no
    receiver (an orphan) or no ACK handler, and a receiver installed with
    {!Dumbbell.set_receiver} that answers with no ACK. A later {!take}
    recycles a released handle, so reading one returns stale fields or
    another packet's: {!release} checks liveness, the accessors do not. *)

type t = int
(** A packet handle: an index into the issuing {!table}. *)

type table

val create_table : unit -> table
(** An empty table; it grows geometrically and never shrinks. *)

val take :
  table ->
  flow:int ->
  seq:int ->
  size:int ->
  retransmit:bool ->
  sent_time:float ->
  delivered:float ->
  delivered_time:float ->
  t
(** A live handle carrying these fields. [flow] must be non-negative: the
    netsim per-flow tables are arrays indexed by it. *)

val release : table -> t -> unit
(** End the handle's lifetime. Raises [Invalid_argument] when [h] is not
    live in this table: released already, or never taken. *)

val flow : table -> t -> int
(** Flow identifier, unique within an experiment. *)

val seq : table -> t -> int
(** Segment sequence number (in MSS units). *)

val size : table -> t -> int
(** Wire size in bytes. *)

val retransmit : table -> t -> bool
(** True when this is a retransmission. *)

val sent_time : table -> t -> float
(** Time this (re)transmission left the sender. *)

val delivered : table -> t -> float
(** Bytes the sender had cumulatively delivered when this packet was
    sent. *)

val delivered_time : table -> t -> float
(** Time of the most recent delivery when this packet was sent. *)

val is_live : table -> t -> bool

val live : table -> int
(** Handles taken and not yet released. *)
