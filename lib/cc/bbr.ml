type variant = V1 | V2

(* Constants shared by both variants. *)
let bw_window_rounds = 10
let probe_rtt_duration = 0.2
let high_gain = 2.0 /. log 2.0
let gain_cycle = [| 1.25; 0.75; 1.0; 1.0; 1.0; 1.0; 1.0; 1.0 |]

(* RTprop expiry, which is also the interval between ProbeRTT episodes. *)
let rtprop_window = function V1 -> 10.0 | V2 -> 5.0

(* V2's loss response. *)
let beta = 0.7
let loss_thresh = 0.02
let headroom_growth = 1.25
let cruise_headroom = 0.85
let probe_rtt_cwnd_gain = 0.5

type mode = Startup | Drain | ProbeBW | ProbeRTT

(* V2's in-flight bound and its per-round loss accounting. All floats, so
   the record is stored flat and the per-ACK updates box nothing. *)
type v2_floats = {
  mutable inflight_hi : float;  (* bytes; upper bound learned from loss *)
  mutable hi_growth_mss : float;  (* PROBE_UP per-round growth, doubles *)
  mutable round_delivered : float;  (* bytes acked this round *)
  mutable round_lost : float;  (* bytes lost this round *)
}

(* The model's floats, in an all-float record: it is stored flat, so the
   per-ACK stores write unboxed doubles instead of allocating a box each,
   as mutable float fields of the mixed [t] below would. *)
type floats = {
  probe_bw_cwnd_gain : float;
  mss : float;
  mutable rtprop : float;  (* seconds; infinity before first sample *)
  mutable rtprop_stamp : float;
  mutable pacing_gain : float;
  mutable cwnd_gain : float;
  mutable full_bw : float;
  mutable cycle_stamp : float;
  mutable probe_rtt_done_stamp : float;
      (* nan until in-flight reached the ProbeRTT cwnd *)
}

type t = {
  variant : variant;
  rng : Sim_engine.Rng.t;
  btlbw : Windowed_filter.Max_rounds.t;  (* bytes/s *)
  f : floats;
  mutable mode : mode;
  mutable full_bw_count : int;
  mutable filled_pipe : bool;
  mutable cycle_index : int;
  (* V2 only. *)
  v2 : v2_floats;
  mutable loss_in_round : bool;
  mutable round_id : int;
  (* The two outputs, boxed: the query closures return these boxes, so a
     send attempt allocates nothing. [publish] replaces one only when its
     bits change. *)
  mutable cwnd_out : float;
  mutable pacing_out : float;
}

(* Inlined, like [min_cwnd] and [probe_rtt_cwnd]: the per-ACK steps use
   them, and a float returned from a call is boxed. *)
let[@inline] bdp t =
  let bw = Windowed_filter.Max_rounds.get t.btlbw in
  if Sim_engine.Stats.is_zero bw || t.f.rtprop = infinity then 0.0
  else bw *. t.f.rtprop

let[@inline] min_cwnd t = 4.0 *. t.f.mss

let[@inline] probe_rtt_cwnd t =
  match t.variant with
  | V1 -> min_cwnd t
  | V2 -> Float.max (probe_rtt_cwnd_gain *. bdp t) (min_cwnd t)

(* Inlined into [publish], like [pacing_rate]: a float returned from a
   call is boxed. *)
let[@inline] cwnd_bytes t =
  match t.mode with
  | ProbeRTT -> probe_rtt_cwnd t
  | Startup | Drain | ProbeBW -> (
    let bdp = bdp t in
    if Sim_engine.Stats.is_zero bdp then 10.0 *. t.f.mss
    else
      let model_cwnd = Float.max (t.f.cwnd_gain *. bdp) (min_cwnd t) in
      match t.variant with
      | V1 -> model_cwnd
      | V2 ->
        (* In cruise the draft leaves headroom below the bound for other
           flows; during probes the bound itself is ramped upward (the
           additive growth in [on_ack]), so no overshoot is needed here. *)
        let hi =
          if t.f.pacing_gain > 1.0 then t.v2.inflight_hi
          else cruise_headroom *. t.v2.inflight_hi
        in
        Float.max (Float.min model_cwnd hi) (min_cwnd t))

let[@inline] pacing_rate t =
  let bw = Windowed_filter.Max_rounds.get t.btlbw in
  if Sim_engine.Stats.is_zero bw then nan else t.f.pacing_gain *. bw

(* Bits, not [Float.equal]: it equates 0.0 and -0.0. *)
let[@inline] same_bits a b =
  Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* Recompute both outputs after each step that can move them: [make],
   [on_ack] and [on_loss] are the only writers of the state they read. *)
let publish t =
  let cwnd = cwnd_bytes t and rate = pacing_rate t in
  if not (same_bits cwnd t.cwnd_out) then
    (t.cwnd_out <- cwnd)
    [@simlint.alloc_ok "one box per change of the window, not one per ACK"];
  if not (same_bits rate t.pacing_out) then
    (t.pacing_out <- rate)
    [@simlint.alloc_ok "one box per change of the pacing rate, not one per ACK"]

let enter_probe_bw t ~now =
  t.mode <- ProbeBW;
  t.f.cwnd_gain <- t.f.probe_bw_cwnd_gain;
  (* Random initial phase, excluding the 0.75 drain phase (index 1). *)
  let idx = Sim_engine.Rng.int t.rng (Array.length gain_cycle) in
  t.cycle_index <- (if idx = 1 then 2 else idx);
  t.f.pacing_gain <- gain_cycle.(t.cycle_index);
  t.f.cycle_stamp <- now

let check_full_pipe t =
  if not t.filled_pipe then begin
    let bw = Windowed_filter.Max_rounds.get t.btlbw in
    if bw >= t.f.full_bw *. 1.25 then begin
      t.f.full_bw <- bw;
      t.full_bw_count <- 0
    end
    else begin
      t.full_bw_count <- t.full_bw_count + 1;
      if t.full_bw_count >= 3 then t.filled_pipe <- true
    end
  end

let advance_cycle t (ack : Cc_types.ack_info) =
  let elapsed = ack.f.now -. t.f.cycle_stamp in
  let inflight = float_of_int ack.inflight_bytes in
  let should_advance =
    if Sim_engine.Stats.approx_eq t.f.pacing_gain 1.0 then elapsed > t.f.rtprop
    else if t.f.pacing_gain > 1.0 then
      (* Stay in the up-probe until we have actually filled the pipe to the
         probing target (or a full RTprop elapsed). *)
      elapsed > t.f.rtprop && inflight >= t.f.pacing_gain *. bdp t
    else
      (* Leave the 0.75 drain phase as soon as the excess is drained. *)
      elapsed > t.f.rtprop || inflight <= bdp t
  in
  if should_advance then begin
    (* V2, leaving a loss-free up-probe: the path has headroom, so raise
       the in-flight bound to what was actually flown, with a growth cap
       (the draft's PROBE_UP growth). *)
    (match t.variant with
    | V1 -> ()
    | V2 ->
      if t.f.pacing_gain > 1.0 && not t.loss_in_round then
        t.v2.inflight_hi <-
          Float.min
            (Float.min
               (Float.max t.v2.inflight_hi inflight)
               (t.v2.inflight_hi *. headroom_growth))
            (2.0 *. Float.max (bdp t) t.f.mss));
    t.cycle_index <- (t.cycle_index + 1) mod Array.length gain_cycle;
    t.f.pacing_gain <- gain_cycle.(t.cycle_index);
    t.f.cycle_stamp <- ack.f.now;
    (* V2: each up-probe restarts the inflight_hi growth ramp. *)
    match t.variant with
    | V1 -> ()
    | V2 -> if t.f.pacing_gain > 1.0 then t.v2.hi_growth_mss <- 1.0
  end

let enter_probe_rtt t =
  t.mode <- ProbeRTT;
  t.f.probe_rtt_done_stamp <- nan

let exit_probe_rtt t ~now =
  t.f.rtprop_stamp <- now;
  if t.filled_pipe then enter_probe_bw t ~now
  else begin
    t.mode <- Startup;
    t.f.pacing_gain <- high_gain;
    t.f.cwnd_gain <- high_gain
  end

(* The Linux rule: a smaller sample always wins; an expired estimate adopts
   the next sample unconditionally (and, below, triggers ProbeRTT). *)
let update_rtprop t (ack : Cc_types.ack_info) ~expired =
  if ack.f.rtt_sample < t.f.rtprop || expired then begin
    t.f.rtprop <- ack.f.rtt_sample;
    t.f.rtprop_stamp <- ack.f.now
  end

let handle_probe_rtt t (ack : Cc_types.ack_info) =
  if Float.is_nan t.f.probe_rtt_done_stamp then begin
    if float_of_int ack.inflight_bytes <= probe_rtt_cwnd t then
      t.f.probe_rtt_done_stamp <- ack.f.now +. probe_rtt_duration
  end
  else if ack.f.now >= t.f.probe_rtt_done_stamp then
    exit_probe_rtt t ~now:ack.f.now

(* V2's per-ACK steps: count the round's delivered bytes, and during a
   ProbeBW up-phase probe the in-flight bound upward every round with
   doubling increments (the draft's bbr2_probe_inflight_hi_upward). *)
let on_ack_v2 t (ack : Cc_types.ack_info) =
  let v2 = t.v2 in
  if ack.round > t.round_id then begin
    t.round_id <- ack.round;
    v2.round_delivered <- 0.0;
    v2.round_lost <- 0.0;
    t.loss_in_round <- false
  end;
  v2.round_delivered <- v2.round_delivered +. float_of_int ack.acked_bytes;
  if
    ack.round_start && t.mode = ProbeBW && t.f.pacing_gain > 1.0
    && v2.inflight_hi < infinity
  then begin
    v2.inflight_hi <-
      Float.min
        (v2.inflight_hi +. (v2.hi_growth_mss *. t.f.mss))
        (2.0 *. Float.max (bdp t) (10.0 *. t.f.mss));
    v2.hi_growth_mss <- Float.min (v2.hi_growth_mss *. 2.0) 32.0
  end

let on_ack t (ack : Cc_types.ack_info) =
  (* Bandwidth filter: app-limited samples only raise the estimate. *)
  if
    ack.f.delivery_rate > 0.0
    && ((not ack.rate_app_limited)
        || ack.f.delivery_rate > Windowed_filter.Max_rounds.get t.btlbw)
  then
    Windowed_filter.Max_rounds.update t.btlbw ~round:ack.round
      ack.f.delivery_rate;
  (* Only an estimate that exists can expire: a flow whose first ACK comes
     late in a run has nothing to refresh. *)
  let rtprop_expired =
    t.f.rtprop < infinity
    && ack.f.now -. t.f.rtprop_stamp > rtprop_window t.variant
  in
  update_rtprop t ack ~expired:rtprop_expired;
  (match t.variant with V1 -> () | V2 -> on_ack_v2 t ack);
  (match t.mode with
  | Startup ->
    if ack.round_start then check_full_pipe t;
    if t.filled_pipe then begin
      t.mode <- Drain;
      t.f.pacing_gain <- 1.0 /. high_gain
    end
  | Drain ->
    if float_of_int ack.inflight_bytes <= bdp t then enter_probe_bw t ~now:ack.f.now
  | ProbeBW -> advance_cycle t ack
  | ProbeRTT -> ());
  (* ProbeRTT entry check applies in every mode except ProbeRTT itself. *)
  (match t.mode with
  | ProbeRTT -> ()
  | Startup | Drain | ProbeBW -> if rtprop_expired then enter_probe_rtt t);
  if t.mode = ProbeRTT then handle_probe_rtt t ack;
  publish t

(* V1 is loss-agnostic (paper §2.3, assumption 4). V2's loss response
   (draft, simplified): the in-flight bound is cut only when the loss rate
   of the current round exceeds 2% while we are actively probing for
   bandwidth (Startup or a ProbeBW up-phase); cruise losses are tolerated
   like V1. At most one cut per round. *)
let on_loss t (loss : Cc_types.loss_info) =
  match t.variant with
  | V1 -> ()
  | V2 ->
    let v2 = t.v2 in
    v2.round_lost <- v2.round_lost +. float_of_int loss.lost_bytes;
    let probing = t.mode = Startup || t.f.pacing_gain > 1.0 in
    let total = v2.round_lost +. v2.round_delivered in
    let loss_rate = if total <= 0.0 then 0.0 else v2.round_lost /. total in
    if probing && (not t.loss_in_round) && loss_rate > loss_thresh then begin
      t.loss_in_round <- true;
      let inflight = float_of_int loss.inflight_bytes in
      let reference = Float.max inflight (bdp t) in
      v2.inflight_hi <-
        Float.max (beta *. Float.min reference v2.inflight_hi) (min_cwnd t);
      v2.hi_growth_mss <- 1.0;
      if t.mode = Startup then t.filled_pipe <- true;
      publish t
    end

let make ?(probe_bw_cwnd_gain = 2.0) ~variant ~mss ~rng () =
  let t =
    {
      variant;
      rng;
      btlbw = Windowed_filter.Max_rounds.create ~window:bw_window_rounds;
      f =
        {
          probe_bw_cwnd_gain;
          mss = float_of_int mss;
          rtprop = infinity;
          rtprop_stamp = 0.0;
          pacing_gain = high_gain;
          cwnd_gain = high_gain;
          full_bw = 0.0;
          cycle_stamp = 0.0;
          probe_rtt_done_stamp = nan;
        };
      mode = Startup;
      full_bw_count = 0;
      filled_pipe = false;
      cycle_index = 0;
      v2 =
        {
          inflight_hi = infinity;
          hi_growth_mss = 1.0;
          round_delivered = 0.0;
          round_lost = 0.0;
        };
      loss_in_round = false;
      round_id = 0;
      cwnd_out = nan;
      pacing_out = nan;
    }
  in
  publish t;
  {
    Cc_types.name = (match variant with V1 -> "bbr" | V2 -> "bbr2");
    on_ack = on_ack t;
    on_loss = on_loss t;
    on_send = Cc_types.ignore_send;
    cwnd_bytes = (fun () -> t.cwnd_out);
    pacing_rate = (fun () -> t.pacing_out);
    state =
      (fun () ->
        match t.mode with
        | Startup -> "Startup"
        | Drain -> "Drain"
        | ProbeBW -> "ProbeBW"
        | ProbeRTT -> "ProbeRTT");
  }

let mode_of (cc : Cc_types.t) = cc.state ()
