(** The congestion-control interface shared by every algorithm.

    Internal units: bytes for windows and volumes, bytes/second for rates,
    seconds for time. The transport layer ({!Tcpflow.Sender}) produces
    {!ack_info}/{!loss_info} records; the CCA updates its state and exposes a
    congestion window and an optional pacing rate.

    A CCA is represented as a record of closures ({!t}) so that user code —
    including the [custom_cca] example — can implement new algorithms without
    functors, and so that heterogeneous flows can share one experiment. *)

(** The float payload of an ACK, split into its own all-float record (flat,
    unboxed storage) so the transport can reuse one mutable [ack_info] as a
    per-ACK scratch without allocating. The record is only valid for the
    duration of the [on_ack] call — CCAs must copy values out, never retain
    the record. *)
type ack_floats = {
  mutable now : float;  (** Virtual time of the ACK's arrival at the sender. *)
  mutable rtt_sample : float;  (** RTT measured by this ACK (seconds). *)
  mutable delivered : float;  (** Sender's cumulative delivered bytes. *)
  mutable delivery_rate : float;
      (** Delivery-rate sample in bytes/s (BBR-style estimator); [0.] when no
          valid sample exists. *)
}

type ack_info = {
  f : ack_floats;  (** Time, RTT and delivery-rate payload. *)
  mutable acked_bytes : int;  (** Bytes newly acknowledged. *)
  mutable rate_app_limited : bool;
      (** The delivery-rate sample was taken while application-limited and
          therefore only a lower bound. *)
  mutable inflight_bytes : int;  (** Bytes in flight after this ACK. *)
  mutable round : int;  (** Count of completed delivery rounds (RTTs). *)
  mutable round_start : bool;  (** True for the first ACK of a new round. *)
}

type loss_info = {
  now : float;
  lost_bytes : int;  (** Bytes declared lost by this event. *)
  inflight_bytes : int;  (** Bytes in flight after removing the lost data. *)
  via_timeout : bool;  (** True for RTO-detected loss (vs fast retransmit). *)
}

type t = {
  name : string;
  on_ack : ack_info -> unit;
  on_loss : loss_info -> unit;
  on_send : now:float -> inflight_bytes:int -> unit;
      (** Called whenever the sender transmits, letting rate-based CCAs track
          sending epochs. Most algorithms ignore it: those should set it to
          {!ignore_send}, which the sender recognises and never calls. *)
  cwnd_bytes : unit -> float;
      (** Current congestion window. The sender never lets in-flight data
          exceed this. *)
  pacing_rate : unit -> float;
      (** Pacing rate in bytes/s; [nan] when the algorithm is ACK-clocked
          (no pacing). Returned unboxed-sentinel style rather than as an
          option so the per-send hot path builds no [Some].

          Both queries run on every send attempt and return a boxed float:
          one that is computed in the call allocates a 2-word box each
          time, unless the CCA returns a box it keeps, as BBR does by
          storing each output when it changes. *)
  state : unit -> string;
      (** Human-readable internal state (e.g. ["ProbeBW"]) for traces. *)
}

val min_cwnd_bytes : mss:int -> float
(** Floor applied by convention in all bundled CCAs: 2 MSS. *)

val ignore_send : now:float -> inflight_bytes:int -> unit
(** The [on_send] of a CCA that ignores sends. The sender does not call an
    [on_send] that is physically this value, so it boxes no [now] per
    transmission; any other function, a fresh no-op included, is called on
    every transmission. *)
