type params = { alpha : float; beta : float; initial_cwnd_mss : int }

let default_params = { alpha = 2.0; beta = 4.0; initial_cwnd_mss = 10 }

type t = {
  params : params;
  mss : float;
  mutable cwnd : float;  (* bytes *)
  mutable ssthresh : float;
  mutable base_rtt : float;  (* path minimum *)
  mutable srtt : float;
  mutable last_adjust_round : int;
}

let on_ack t (ack : Cc_types.ack_info) =
  if ack.f.rtt_sample < t.base_rtt then t.base_rtt <- ack.f.rtt_sample;
  t.srtt <-
    (if Float.is_nan t.srtt then ack.f.rtt_sample
     else (0.875 *. t.srtt) +. (0.125 *. ack.f.rtt_sample));
  let acked = float_of_int ack.acked_bytes in
  if t.cwnd < t.ssthresh then
    (* Vegas slow start: double every OTHER round so the diff estimate can
       settle; approximated as half-rate byte counting. *)
    t.cwnd <- t.cwnd +. (acked /. 2.0)
  else if ack.round > t.last_adjust_round then begin
    t.last_adjust_round <- ack.round;
    (* diff = (expected - actual) x base_rtt, in packets. *)
    let expected_pps = t.cwnd /. t.mss /. t.base_rtt in
    let actual_pps = t.cwnd /. t.mss /. t.srtt in
    let diff = (expected_pps -. actual_pps) *. t.base_rtt in
    if diff < t.params.alpha then t.cwnd <- t.cwnd +. t.mss
    else if diff > t.params.beta then t.cwnd <- t.cwnd -. t.mss
  end;
  let floor_ = Cc_types.min_cwnd_bytes ~mss:(int_of_float t.mss) in
  if t.cwnd < floor_ then t.cwnd <- floor_

let on_loss t (loss : Cc_types.loss_info) =
  let floor_ = Cc_types.min_cwnd_bytes ~mss:(int_of_float t.mss) in
  if loss.via_timeout then begin
    t.ssthresh <- Float.max (t.cwnd /. 2.0) floor_;
    t.cwnd <- floor_
  end
  else begin
    (* Vegas reduces by 1/4 on fast retransmit (gentler than Reno). *)
    t.ssthresh <- Float.max (0.75 *. t.cwnd) floor_;
    t.cwnd <- t.ssthresh
  end

let make ?(params = default_params) ~mss () =
  let t =
    {
      params;
      mss = float_of_int mss;
      cwnd = float_of_int (params.initial_cwnd_mss * mss);
      ssthresh = infinity;
      base_rtt = infinity;
      srtt = nan;
      last_adjust_round = -1;
    }
  in
  {
    Cc_types.name = "vegas";
    on_ack = on_ack t;
    on_loss = on_loss t;
    on_send = Cc_types.ignore_send;
    cwnd_bytes = (fun () -> t.cwnd);
    pacing_rate = (fun () -> nan);
    state = (fun () -> if t.cwnd < t.ssthresh then "SlowStart" else "Vegas");
  }
