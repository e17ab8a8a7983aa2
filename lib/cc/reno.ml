type t = {
  mss : float;
  mutable cwnd : float;  (* bytes *)
  mutable ssthresh : float;  (* bytes *)
}

let on_ack t (ack : Cc_types.ack_info) =
  let acked = float_of_int ack.acked_bytes in
  if t.cwnd < t.ssthresh then
    (* Slow start: one MSS per acked MSS. *)
    t.cwnd <- t.cwnd +. acked
  else
    (* Congestion avoidance: one MSS per window. *)
    t.cwnd <- t.cwnd +. (t.mss *. acked /. t.cwnd)

let on_loss t (loss : Cc_types.loss_info) =
  let floor_ = Cc_types.min_cwnd_bytes ~mss:(int_of_float t.mss) in
  if loss.via_timeout then begin
    t.ssthresh <- Float.max (t.cwnd /. 2.0) floor_;
    t.cwnd <- t.mss
  end
  else begin
    t.ssthresh <- Float.max (t.cwnd /. 2.0) floor_;
    t.cwnd <- t.ssthresh
  end

let make ?(initial_cwnd_mss = 10) ~mss () =
  let t =
    {
      mss = float_of_int mss;
      cwnd = float_of_int (initial_cwnd_mss * mss);
      ssthresh = infinity;
    }
  in
  {
    Cc_types.name = "reno";
    on_ack = on_ack t;
    on_loss = on_loss t;
    on_send = Cc_types.ignore_send;
    cwnd_bytes = (fun () -> Float.max t.cwnd (Cc_types.min_cwnd_bytes ~mss));
    pacing_rate = (fun () -> nan);
    state = (fun () -> if t.cwnd < t.ssthresh then "SlowStart" else "CongAvoid");
  }
