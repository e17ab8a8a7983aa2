type params = { delta : float; initial_cwnd_mss : int }

let default_params = { delta = 0.5; initial_cwnd_mss = 10 }

type direction = Up | Down | Unset

type t = {
  params : params;
  mss : float;
  mutable cwnd : float;  (* bytes *)
  rtt_min : Windowed_filter.Min_time.t;  (* path min over 100 s *)
  (* Raw RTT samples from the last 2 s: a time-ordered ring of parallel
     arrays (power-of-two capacity, oldest at [rtt_head]). Copa's standing
     RTT is a lazy min over the most recent srtt/2 of them; a ring keeps
     the per-ACK bookkeeping allocation-free. *)
  mutable rtt_times : float array;
  mutable rtt_samples : float array;
  mutable rtt_head : int;
  mutable rtt_len : int;
  mutable srtt : float;
  mutable velocity : float;
  mutable direction : direction;
  mutable direction_rounds : int;  (* consecutive rounds in same direction *)
  mutable last_round : int;
  mutable cwnd_at_round_start : float;
  mutable in_slow_start : bool;
}

let[@simlint.alloc_ok "amortized geometric growth; arrays never shrink"]
    grow_rtts t =
  let cap = Array.length t.rtt_times in
  let times = Array.make (2 * cap) 0.0 in
  let samples = Array.make (2 * cap) 0.0 in
  for i = 0 to t.rtt_len - 1 do
    let j = (t.rtt_head + i) land (cap - 1) in
    times.(i) <- t.rtt_times.(j);
    samples.(i) <- t.rtt_samples.(j)
  done;
  t.rtt_times <- times;
  t.rtt_samples <- samples;
  t.rtt_head <- 0

let update_rtt_filters t (ack : Cc_types.ack_info) =
  t.srtt <-
    (if Float.is_nan t.srtt then ack.f.rtt_sample
     else (0.875 *. t.srtt) +. (0.125 *. ack.f.rtt_sample));
  Windowed_filter.Min_time.update t.rtt_min ~time:ack.f.now ack.f.rtt_sample;
  (* Copa's standing RTT: minimum over the last srtt/2. The window tracks
     srtt, so we keep raw samples (pruned at 2 s) and evaluate lazily. *)
  let mask = Array.length t.rtt_times - 1 in
  while t.rtt_len > 0 && ack.f.now -. t.rtt_times.(t.rtt_head) > 2.0 do
    t.rtt_head <- (t.rtt_head + 1) land mask;
    t.rtt_len <- t.rtt_len - 1
  done;
  if t.rtt_len = Array.length t.rtt_times then grow_rtts t;
  let mask = Array.length t.rtt_times - 1 in
  let back = (t.rtt_head + t.rtt_len) land mask in
  t.rtt_times.(back) <- ack.f.now;
  t.rtt_samples.(back) <- ack.f.rtt_sample;
  t.rtt_len <- t.rtt_len + 1

(* Minimum RTT sample within the last srtt/2 seconds. *)
let standing_rtt t ~now =
  let window = if Float.is_nan t.srtt then 0.1 else t.srtt /. 2.0 in
  let mask = Array.length t.rtt_times - 1 in
  let acc = ref infinity in
  for i = 0 to t.rtt_len - 1 do
    let j = (t.rtt_head + i) land mask in
    if now -. t.rtt_times.(j) <= window then
      if t.rtt_samples.(j) < !acc then acc := t.rtt_samples.(j)
  done;
  !acc

let update_direction t (ack : Cc_types.ack_info) =
  if ack.round > t.last_round then begin
    let dir = if t.cwnd > t.cwnd_at_round_start then Up else Down in
    (match (t.direction, dir) with
    | Up, Up | Down, Down ->
      t.direction_rounds <- t.direction_rounds + 1;
      (* Velocity doubles only after 3 consistent rounds. *)
      if t.direction_rounds >= 3 then t.velocity <- t.velocity *. 2.0
    | _, _ ->
      t.direction <- dir;
      t.direction_rounds <- 0;
      t.velocity <- 1.0);
    t.last_round <- ack.round;
    t.cwnd_at_round_start <- t.cwnd
  end

let on_ack t (ack : Cc_types.ack_info) =
  update_rtt_filters t ack;
  update_direction t ack;
  let rtt_min = Windowed_filter.Min_time.get t.rtt_min in
  let rtt_standing = standing_rtt t ~now:ack.f.now in
  let rtt_standing =
    if rtt_standing = infinity then ack.f.rtt_sample else rtt_standing
  in
  let queuing_delay = Float.max 0.0 (rtt_standing -. rtt_min) in
  let cwnd_pkts = t.cwnd /. t.mss in
  (* The velocity step is capped at the acked bytes: the fastest Copa can
     legitimately move its window is slow-start speed (doubling per RTT).
     Without this cap the v-doubling mechanism can detach cwnd from any
     physically meaningful value. *)
  let step =
    Float.min
      (t.velocity /. (t.params.delta *. cwnd_pkts)
      *. (float_of_int ack.acked_bytes /. t.mss)
      *. t.mss)
      (float_of_int ack.acked_bytes)
  in
  if queuing_delay <= 0.0 then begin
    (* No queue: grow. In slow-start Copa doubles per RTT. *)
    if t.in_slow_start then t.cwnd <- t.cwnd +. float_of_int ack.acked_bytes
    else t.cwnd <- t.cwnd +. step
  end
  else begin
    t.in_slow_start <- false;
    let target_rate_pps = 1.0 /. (t.params.delta *. queuing_delay) in
    let current_rate_pps = cwnd_pkts /. rtt_standing in
    if current_rate_pps <= target_rate_pps then t.cwnd <- t.cwnd +. step
    else t.cwnd <- t.cwnd -. step
  end;
  let floor_ = Cc_types.min_cwnd_bytes ~mss:(int_of_float t.mss) in
  if t.cwnd < floor_ then t.cwnd <- floor_

let on_loss t (loss : Cc_types.loss_info) =
  (* Default-mode Copa reacts to loss only by leaving slow start; it relies
     on delay, not loss. A timeout still collapses the window for safety. *)
  t.in_slow_start <- false;
  if loss.via_timeout then t.cwnd <- Cc_types.min_cwnd_bytes ~mss:(int_of_float t.mss)

let make ?(params = default_params) ~mss () =
  let t =
    {
      params;
      mss = float_of_int mss;
      cwnd = float_of_int (params.initial_cwnd_mss * mss);
      rtt_min = Windowed_filter.Min_time.create ~window:100.0;
      rtt_times = Array.make 16 0.0;
      rtt_samples = Array.make 16 0.0;
      rtt_head = 0;
      rtt_len = 0;
      srtt = nan;
      velocity = 1.0;
      direction = Unset;
      direction_rounds = 0;
      last_round = -1;
      cwnd_at_round_start = 0.0;
      in_slow_start = true;
    }
  in
  {
    Cc_types.name = "copa";
    on_ack = on_ack t;
    on_loss = on_loss t;
    on_send = Cc_types.ignore_send;
    cwnd_bytes = (fun () -> t.cwnd);
    pacing_rate =
      (fun () ->
        (* Copa paces at 2×cwnd/RTT to smooth bursts. *)
        if Float.is_nan t.srtt then nan else 2.0 *. t.cwnd /. t.srtt);
    state = (fun () -> if t.in_slow_start then "SlowStart" else "Steady");
  }
