(** Data packets traversing the forward path of the simulated network.

    Only data packets are modelled as queue-occupying objects; ACKs travel on
    the uncongested reverse path and are represented as scheduled callbacks
    (see {!Tcpflow.Receiver}), matching the paper's single-bottleneck setup
    where the ACK path is never the bottleneck.

    The [delivered]/[delivered_time] stamps snapshot the sender's delivery
    state at transmission time; they implement the delivery rate estimator
    that BBR's bandwidth filter consumes. *)

(** The per-transmission timestamps, in an all-float record: OCaml stores
    it flat, so restamping a pooled packet writes unboxed doubles instead
    of allocating a box per field. *)
type stamps = {
  mutable sent_time : float;
      (** Time this (re)transmission left the sender. *)
  mutable delivered : float;
      (** Bytes the sender had cumulatively delivered when this packet was
          sent. *)
  mutable delivered_time : float;
      (** Time of the most recent delivery when this packet was sent. *)
}

(** Fields are mutable so the transport can recycle acknowledged packets
    through a free pool (see {!Tcpflow.Sender}); only the owning sender may
    mutate a packet, and only once no queue or lane references it. *)
type t = {
  mutable flow : int;
      (** Flow identifier, unique within an experiment. Never negative:
          the netsim per-flow tables are arrays indexed by it. *)
  mutable seq : int;  (** Segment sequence number (in MSS units). *)
  mutable size : int;  (** Wire size in bytes. *)
  mutable retransmit : bool;  (** True when this is a retransmission. *)
  ts : stamps;  (** Send-time snapshot, restamped in place on reuse. *)
}

val make :
  flow:int ->
  seq:int ->
  size:int ->
  retransmit:bool ->
  sent_time:float ->
  delivered:float ->
  delivered_time:float ->
  t

val dummy : t
(** Placeholder packet ([flow = -1]) filling never-used ring and pool
    cells; it never enters the network. *)

val pp : Format.formatter -> t -> unit
