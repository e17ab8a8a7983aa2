type params = {
  c : float;
  beta : float;
  tcp_friendly : bool;
  initial_cwnd_mss : int;
}

let default_params =
  { c = 0.4; beta = 0.3; tcp_friendly = true; initial_cwnd_mss = 10 }

let multiplicative_decrease p = 1.0 -. p.beta

(* All floats, so the record is stored flat and the per-ACK stores write
   unboxed doubles; [params] is passed alongside. *)
type t = {
  mss : float;
  mutable cwnd : float;  (* bytes *)
  mutable ssthresh : float;  (* bytes *)
  mutable w_max : float;  (* MSS units, as in the kernel *)
  mutable k : float;  (* seconds *)
  mutable epoch_start : float;  (* time of last loss; nan before any loss *)
  mutable srtt : float;  (* smoothed RTT for target look-ahead *)
  (* TCP-friendly region state. *)
  mutable w_est : float;  (* MSS units *)
  mutable acked_since_loss : float;  (* bytes *)
}

let[@inline] cwnd_mss t = t.cwnd /. t.mss

(* Eq. (1) of the paper: the cubic window at [elapsed] seconds after the last
   back-off, in MSS units. *)
let[@inline] cubic_window p t ~elapsed =
  (p.c *. ((elapsed -. t.k) ** 3.0)) +. t.w_max

let on_ack p t (ack : Cc_types.ack_info) =
  let acked = float_of_int ack.acked_bytes in
  t.srtt <-
    (if Float.is_nan t.srtt then ack.f.rtt_sample
     else (0.875 *. t.srtt) +. (0.125 *. ack.f.rtt_sample));
  if t.cwnd < t.ssthresh then t.cwnd <- t.cwnd +. acked
  else begin
    if Float.is_nan t.epoch_start then begin
      (* First congestion-avoidance ACK without a prior loss: anchor the
         cubic epoch at the current window. *)
      t.epoch_start <- ack.f.now;
      t.w_max <- cwnd_mss t;
      t.k <- 0.0;
      t.w_est <- cwnd_mss t
    end;
    let elapsed = ack.f.now -. t.epoch_start +. t.srtt in
    let target = cubic_window p t ~elapsed in
    let w = cwnd_mss t in
    let increment_mss =
      if target > w then (target -. w) /. w *. (acked /. t.mss)
      else 0.01 /. w *. (acked /. t.mss)
      (* minimal growth when at/above target, as in the kernel's max_cnt *)
    in
    t.cwnd <- t.cwnd +. (increment_mss *. t.mss);
    if p.tcp_friendly then begin
      (* Reno-equivalent window estimate (RFC 8312 §4.2). *)
      t.acked_since_loss <- t.acked_since_loss +. acked;
      let alpha = 3.0 *. p.beta /. (2.0 -. p.beta) in
      t.w_est <-
        t.w_est +. (alpha *. (acked /. t.mss) /. Float.max 1.0 t.w_est);
      if t.w_est > cwnd_mss t then t.cwnd <- t.w_est *. t.mss
    end
  end

let on_loss p t (loss : Cc_types.loss_info) =
  let w = cwnd_mss t in
  t.epoch_start <- loss.now;
  t.w_max <- w;
  t.k <- Float.cbrt (t.w_max *. p.beta /. p.c);
  let decreased = t.cwnd *. multiplicative_decrease p in
  let floor_ = Cc_types.min_cwnd_bytes ~mss:(int_of_float t.mss) in
  t.cwnd <- Float.max decreased floor_;
  t.ssthresh <- t.cwnd;
  t.w_est <- cwnd_mss t;
  t.acked_since_loss <- 0.0;
  if loss.via_timeout then t.cwnd <- floor_

let make ?(params = default_params) ~mss () =
  let t =
    {
      mss = float_of_int mss;
      cwnd = float_of_int (params.initial_cwnd_mss * mss);
      ssthresh = infinity;
      w_max = 0.0;
      k = 0.0;
      epoch_start = nan;
      srtt = nan;
      w_est = 0.0;
      acked_since_loss = 0.0;
    }
  in
  {
    Cc_types.name = "cubic";
    on_ack = on_ack params t;
    on_loss = on_loss params t;
    on_send = Cc_types.ignore_send;
    cwnd_bytes = (fun () -> Float.max t.cwnd (Cc_types.min_cwnd_bytes ~mss));
    pacing_rate = (fun () -> nan);
    state =
      (fun () -> if t.cwnd < t.ssthresh then "SlowStart" else "CongAvoid");
  }
