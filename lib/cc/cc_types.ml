(* The per-ACK floats live in their own all-float record so the transport
   can refill one mutable scratch [ack_info] per ACK without allocating:
   all-float records store flat, whereas mutable float fields of the mixed
   record would box on every store. *)
type ack_floats = {
  mutable now : float;
  mutable rtt_sample : float;
  mutable delivered : float;
  mutable delivery_rate : float;
}

type ack_info = {
  f : ack_floats;
  mutable acked_bytes : int;
  mutable rate_app_limited : bool;
  mutable inflight_bytes : int;
  mutable round : int;
  mutable round_start : bool;
}

type loss_info = {
  now : float;
  lost_bytes : int;
  inflight_bytes : int;
  via_timeout : bool;
}

type t = {
  name : string;
  on_ack : ack_info -> unit;
  on_loss : loss_info -> unit;
  on_send : now:float -> inflight_bytes:int -> unit;
  cwnd_bytes : unit -> float;
  pacing_rate : unit -> float;
  state : unit -> string;
}

let min_cwnd_bytes ~mss = float_of_int (2 * mss)

(* The sender compares [on_send] against this value physically and skips
   the call, which would box [now], when they match. *)
let ignore_send ~now:_ ~inflight_bytes:_ = ()
