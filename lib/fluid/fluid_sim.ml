type kind = Cubic | Bbr | Bbr2

type flow_spec = { kind : kind; rtt : Sim_engine.Units.seconds }

type sync_mode = Synchronized | Desynchronized | Stochastic of float

type config = {
  capacity_bps : Sim_engine.Units.rate_bps;
  buffer_bytes : Sim_engine.Units.byte_count;
  flows : flow_spec list;
  sync : sync_mode;
  duration : Sim_engine.Units.seconds;
  warmup : Sim_engine.Units.seconds;
  dt : Sim_engine.Units.seconds;
  seed : int;
  trace_period : Sim_engine.Units.seconds;  (* 0. = no trace *)
}

let mss = float_of_int Sim_engine.Units.mss
let inv_mss = 1.0 /. mss

let default_config =
  let capacity_bps = Sim_engine.Units.mbps 100.0 in
  let rtt = Sim_engine.Units.ms 40.0 in
  {
    capacity_bps;
    buffer_bytes =
      Sim_engine.Units.scale 10.0
        (Sim_engine.Units.bdp_bytes ~rate_bps:capacity_bps ~rtt);
    flows = [ { kind = Cubic; rtt }; { kind = Bbr; rtt } ];
    sync = Synchronized;
    duration = Sim_engine.Units.seconds 60.0;
    warmup = Sim_engine.Units.seconds 20.0;
    dt = Sim_engine.Units.ms 2.0;
    seed = 1;
    trace_period = Sim_engine.Units.seconds 0.0;
  }

(* --- CCA-name mapping (the one place registry names meet fluid kinds) --- *)

type unsupported_cca = { cca : string; supported : string list }

let supported_ccas = [ "cubic"; "bbr"; "bbr2" ]

let kind_of_cca = function
  | "cubic" -> Ok Cubic
  | "bbr" -> Ok Bbr
  | "bbr2" -> Ok Bbr2
  | cca -> Error { cca; supported = supported_ccas }

let cca_of_kind = function Cubic -> "cubic" | Bbr -> "bbr" | Bbr2 -> "bbr2"

let kind_of_cca_exn cca =
  match kind_of_cca cca with
  | Ok k -> k
  | Error { cca; supported } ->
    invalid_arg
      (Printf.sprintf "Fluid_sim: no fluid model for CCA %S (supported: %s)"
         cca
         (String.concat ", " supported))

type trace_sample = {
  t_time : float;
  t_queue : float;
  t_w : float array;
  t_btlbw : float array;
  t_rtprop : float array;
}

type result = {
  per_flow_bps : float array;
  mean_queue_bytes : float;
  mean_queuing_delay : float;
  loss_events : int;
  flow_kinds : kind array;
  trace : trace_sample list;
}

let cubic_c = 0.4 (* MSS/s^3 *)
let cubic_beta = 0.3
let probe_rtt_interval = 10.0
let probe_rtt_duration = 0.2

(* Float min/max without [Float.min]/[Float.max]'s NaN handling: the step
   kernel never produces NaNs, and the plain comparisons compile to a
   single branch each instead of three. *)
let[@inline] fmin (a : float) (b : float) = if a <= b then a else b
let[@inline] fmax (a : float) (b : float) = if a >= b then a else b

(* Struct-of-arrays state of one run: one float array per per-flow field
   (plus int/bool arrays for discrete state), with the BBR bandwidth rings
   flat at [i * bw_cap] for flow [i]. Per-spec constants are immutable
   fields that the kernel reads into locals. The per-spec accumulators live
   in the all-float [acc] record, so writing them boxes nothing. The hot
   functions below additionally take only [int] arguments and pass
   transient floats through [acc] slots ([srate], [prev_qdelay]), so no
   float is boxed at a call boundary either. *)

let bw_cap = 64 (* per-flow deque slots; ~11 live entries at 10-RTT windows *)

type acc = {
  mutable srate : float;  (* staging slot for [update_btlbw]'s rate sample *)
  mutable prev_qdelay : float;  (* clamped queuing delay of the last step *)
  mutable q_prev : float;  (* unclamped q*, warm start for the Newton solve *)
  mutable last_q : float;  (* clamped queue of the last step (for traces) *)
  mutable queue_integral : float;
  mutable queue_time : float;
}

type arena = {
  n : int;  (* flows *)
  capacity : float;  (* bytes/s *)
  inv_capacity : float;
  buffer : float;  (* bytes *)
  fair : float;  (* capacity / n *)
  dt : float;  (* step width, seconds *)
  warmup : float;
  window : float;  (* duration - warmup *)
  nsteps : int;
  sync : sync_mode;
  uniform : bool;  (* all flow RTTs equal: closed-form queue solve *)
  all_cubic : bool;  (* no BBR flows: skip the estimator pass *)
  cap_rtt0 : float;  (* capacity * rtt, valid when uniform *)
  rng : Sim_engine.Rng.t;
  acc : acc;
  mutable loss_events : int;
  (* per-flow state *)
  kinds : kind array;
  rtt : float array;  (* seconds *)
  w : float array;  (* current window / in-flight target, bytes *)
  (* CUBIC *)
  slow_start : bool array;
  w_max : float array;  (* bytes *)
  epoch : float array;  (* time of last back-off *)
  ck : float array;  (* cubic K, seconds *)
  (* BBR *)
  btlbw : float array;  (* bytes/s, windowed max *)
  bw_time : float array;  (* ring of sample times, flow i at [i*bw_cap ..] *)
  bw_rate : float array;  (* ring of sampled rates *)
  bw_head : int array;  (* oldest live slot, relative to the flow's base *)
  bw_len : int array;
  last_bw_update : float array;
  w_cur : float array;  (* BBR's actual in-flight (ramps at pacing rate) *)
  rtprop : float array;
  rtprop_stamp : float array;
  probing_until : float array;  (* > now while in ProbeRTT *)
  probe_min_rtt : float array;  (* min RTT sampled during current probe *)
  (* BBRv2 *)
  inflight_hi : float array;
  last_loss_time : float array;
  last_hi_growth : float array;
  last_backoff : float array;  (* for at-most-one back-off per RTT *)
  (* accounting *)
  delivered : float array;  (* bytes in measurement window *)
  rate : float array;  (* this step's per-flow throughput, bytes/s *)
}

(* Every quantity must be finite; each bound is stated so that NaN fails
   it ([nan <= 0.0] is false). *)
let validate (c : config) =
  let module Raw = Sim_engine.Units.Raw in
  let positive x = Float.is_finite x && x > 0.0 in
  let duration = Raw.to_float c.duration in
  let warmup = Raw.to_float c.warmup in
  if not (positive (Raw.to_float c.dt)) then
    invalid_arg "Fluid_sim.run: dt must be finite and > 0";
  if not (positive duration) then
    invalid_arg "Fluid_sim.run: duration must be finite and > 0";
  if not (warmup >= 0.0 && warmup < duration) then
    invalid_arg "Fluid_sim.run: need 0 <= warmup < duration";
  if c.flows = [] then invalid_arg "Fluid_sim.run: no flows";
  if not (positive (Raw.to_float c.capacity_bps)) then
    invalid_arg "Fluid_sim.run: capacity must be finite and > 0";
  if not (positive (Raw.to_float c.buffer_bytes)) then
    invalid_arg "Fluid_sim.run: buffer must be finite and > 0";
  (match c.sync with
  | Stochastic p ->
    if not (p >= 0.0 && p <= 1.0) then
      invalid_arg "Fluid_sim.run: Stochastic p must be in [0, 1]"
  | Synchronized | Desynchronized -> ());
  List.iter
    (fun (f : flow_spec) ->
      if not (positive (Raw.to_float f.rtt)) then
        invalid_arg "Fluid_sim.run: flow rtt must be finite and > 0")
    c.flows

let make_arena (c : config) =
  let module Raw = Sim_engine.Units.Raw in
  validate c;
  let dt = Raw.to_float c.dt in
  let duration = Raw.to_float c.duration in
  let warmup = Raw.to_float c.warmup in
  let n = List.length c.flows in
  let capacity = Sim_engine.Units.bytes_per_sec c.capacity_bps in
  let rng = Sim_engine.Rng.create c.seed in
  let kinds = Array.make n Cubic in
  let rtt = Array.make n 0.0 in
  let w = Array.make n 0.0 in
  let w_max = Array.make n 0.0 in
  let epoch = Array.make n 0.0 in
  let btlbw = Array.make n 0.0 in
  let w_cur = Array.make n 0.0 in
  let rtprop = Array.make n 0.0 in
  let rtprop_stamp = Array.make n 0.0 in
  List.iteri
    (fun i (f : flow_spec) ->
      let s_rtt = Raw.to_float f.rtt in
      (* All flows start together, as in the paper's experiments; the
         jitter only desynchronizes slow-start exits slightly. *)
      let jitter = Sim_engine.Rng.uniform_in rng ~lo:0.8 ~hi:1.2 in
      let w0 = 10.0 *. mss *. jitter in
      kinds.(i) <- f.kind;
      rtt.(i) <- s_rtt;
      w.(i) <- w0;
      w_max.(i) <- w0;
      epoch.(i) <- -.Sim_engine.Rng.float rng 1.0;
      btlbw.(i) <- w0 /. s_rtt;
      w_cur.(i) <- w0;
      rtprop.(i) <- s_rtt;
      rtprop_stamp.(i) <- Sim_engine.Rng.float rng 2.0)
    c.flows;
  let uniform = ref true in
  for i = 1 to n - 1 do
    if rtt.(i) <> rtt.(0) then uniform := false (* simlint: allow R4 *)
  done;
  let all_cubic = ref true in
  for i = 0 to n - 1 do
    match kinds.(i) with Cubic -> () | Bbr | Bbr2 -> all_cubic := false
  done;
  let flows v = Array.make n v in
  {
    n;
    capacity;
    inv_capacity = 1.0 /. capacity;
    buffer = Raw.to_float c.buffer_bytes;
    fair = capacity /. float_of_int n;
    dt;
    warmup;
    window = duration -. warmup;
    nsteps = int_of_float (Float.round (duration /. dt));
    sync = c.sync;
    uniform = !uniform;
    all_cubic = !all_cubic;
    cap_rtt0 = capacity *. rtt.(0);
    rng;
    acc =
      {
        srate = 0.0;
        prev_qdelay = 0.0;
        q_prev = 0.0;
        last_q = 0.0;
        queue_integral = 0.0;
        queue_time = 0.0;
      };
    loss_events = 0;
    kinds;
    rtt;
    w;
    slow_start = flows true;
    w_max;
    epoch;
    ck = flows 0.0;
    btlbw;
    bw_time = Array.make (n * bw_cap) 0.0;
    bw_rate = Array.make (n * bw_cap) 0.0;
    bw_head = flows 0;
    bw_len = flows 0;
    last_bw_update = flows neg_infinity;
    w_cur;
    rtprop;
    rtprop_stamp;
    probing_until = flows 0.0;
    probe_min_rtt = flows infinity;
    inflight_hi = flows infinity;
    last_loss_time = flows neg_infinity;
    last_hi_growth = flows 0.0;
    last_backoff = flows neg_infinity;
    delivered = flows 0.0;
    rate = flows 0.0;
  }

let[@inline] cubic_window (st : arena) i ~now =
  let t = now -. st.epoch.(i) in
  let t3 = t -. st.ck.(i) in
  let w_mss = (cubic_c *. (t3 *. t3 *. t3)) +. (st.w_max.(i) *. inv_mss) in
  fmax (2.0 *. mss) (w_mss *. mss)

let cubic_backoff (st : arena) i ~now =
  st.slow_start.(i) <- false;
  st.w_max.(i) <- st.w.(i);
  st.ck.(i) <- Float.cbrt (st.w_max.(i) *. inv_mss *. cubic_beta /. cubic_c);
  st.epoch.(i) <- now;
  st.w.(i) <- fmax (2.0 *. mss) (0.7 *. st.w.(i));
  st.last_backoff.(i) <- now

(* Windowed max of the achieved rate over roughly 10 (inflated) RTTs: a
   monotone deque (decreasing rates front→back, increasing times) in the
   flat ring. Expired entries leave at the front, dominated ones at the
   back, and the front is the max. Called once per inflated RTT per BBR
   flow; takes only ints and reads the rate sample and queuing delay from
   the [acc] scratch ([srate], [prev_qdelay]) so the amortized call boxes
   nothing. *)
let update_btlbw (st : arena) ~i ~step =
  let now = float_of_int step *. st.dt in
  let rate = st.acc.srate in
  let window = 10.0 *. (st.rtt.(i) +. st.acc.prev_qdelay) in
  let base = i * bw_cap in
  (* Expire from the front (times increase front→back). *)
  while
    st.bw_len.(i) > 0
    && now -. st.bw_time.(base + st.bw_head.(i)) > window
  do
    st.bw_head.(i) <- (st.bw_head.(i) + 1) mod bw_cap;
    st.bw_len.(i) <- st.bw_len.(i) - 1
  done;
  (* Drop dominated entries from the back. *)
  while
    st.bw_len.(i) > 0
    &&
    let back = (st.bw_head.(i) + st.bw_len.(i) - 1) mod bw_cap in
    st.bw_rate.(base + back) <= rate
  do
    st.bw_len.(i) <- st.bw_len.(i) - 1
  done;
  (* Push (now, rate); on a full ring drop the oldest (cannot happen at
     one sample per RTT and 10-RTT windows, but stay safe). *)
  if st.bw_len.(i) = bw_cap then begin
    st.bw_head.(i) <- (st.bw_head.(i) + 1) mod bw_cap;
    st.bw_len.(i) <- st.bw_len.(i) - 1
  end;
  let slot = (st.bw_head.(i) + st.bw_len.(i)) mod bw_cap in
  st.bw_time.(base + slot) <- now;
  st.bw_rate.(base + slot) <- rate;
  st.bw_len.(i) <- st.bw_len.(i) + 1;
  st.btlbw.(i) <- st.bw_rate.(base + st.bw_head.(i))


(* Buffer overflow: the queue saturates at B, excess is dropped, and
   eligible flows register one loss event per (inflated) RTT. The CUBIC
   victim set is the synchronization mode; BBRv2 clamps inflight_hi.
   Reads the clamped queuing delay from [prev_qdelay] (already updated for
   this step). *)
let apply_losses (st : arena) ~step =
  let n = st.n in
  let now = float_of_int step *. st.dt in
  let qdelay = st.acc.prev_qdelay in
  (* Eligibility (one backoff per inflated RTT) is tested inline in each
     loop: a local [eligible i] helper would close over [now]/[qdelay]
     and allocate on every overflow call (A1). *)
  (match st.sync with
  | Synchronized ->
    for i = 0 to n - 1 do
      match st.kinds.(i) with
      | Cubic when now -. st.last_backoff.(i) > st.rtt.(i) +. qdelay ->
        cubic_backoff st i ~now
      | Cubic | Bbr | Bbr2 -> ()
    done
  | Desynchronized ->
    (* The largest eligible window backs off (first max wins ties). *)
    let victim = ref (-1) in
    for i = 0 to n - 1 do
      match st.kinds.(i) with
      | Cubic
        when now -. st.last_backoff.(i) > st.rtt.(i) +. qdelay
             && (!victim < 0 || st.w.(i) > st.w.(!victim)) ->
        victim := i
      | Cubic | Bbr | Bbr2 -> ()
    done;
    if !victim >= 0 then cubic_backoff st !victim ~now
  | Stochastic p ->
    let rng = st.rng in
    let any = ref false in
    let victim = ref (-1) in
    for i = 0 to n - 1 do
      match st.kinds.(i) with
      | Cubic when now -. st.last_backoff.(i) > st.rtt.(i) +. qdelay ->
        if !victim < 0 || st.w.(i) > st.w.(!victim) then victim := i;
        if Sim_engine.Rng.float rng 1.0 < p then begin
          any := true;
          cubic_backoff st i ~now
        end
      | Cubic | Bbr | Bbr2 -> ()
    done;
    if (not !any) && !victim >= 0 then cubic_backoff st !victim ~now);
  (* BBRv2 reacts to the shared loss round. *)
  for i = 0 to n - 1 do
    match st.kinds.(i) with
    | Bbr2 when now -. st.last_backoff.(i) > st.rtt.(i) +. qdelay ->
      st.inflight_hi.(i) <-
        fmax (4.0 *. mss) (0.7 *. fmin st.w.(i) st.inflight_hi.(i));
      st.last_loss_time.(i) <- now;
      st.last_backoff.(i) <- now
    | Cubic | Bbr | Bbr2 -> ()
  done

(* The fused integrator: advances the run through steps [from, until) of
   its time grid. Every per-spec invariant (capacity, dt, flow count,
   uniformity) and accumulator lives in a local across all steps instead
   of being re-read per step. Each step runs two passes over the flows:
   windows (with the queue fixed point solved between passes —
   closed-form for the uniform-RTT shape, warm-started Newton otherwise)
   and fused rates/accounting; all-CUBIC specs skip the estimator
   machinery entirely.

   Zero-alloc: registered under the A1 verifier in hotpaths.sexp; traced
   runs are driven in per-step segments by [run] so the sample consing
   stays out of this kernel. *)
let run_spec (st : arena) ~from ~until =
  let n = st.n in
  let dt = st.dt in
  let capacity = st.capacity in
  let inv_capacity = st.inv_capacity in
  let buffer = st.buffer in
  let swarmup = st.warmup in
  let fair = st.fair in
  let uniform = st.uniform in
  let all_cubic = st.all_cubic in
  let cap_rtt0 = st.cap_rtt0 in
  let acc = st.acc in
  let kinds = st.kinds in
  let w = st.w in
  let rtt = st.rtt in
  let slow_start = st.slow_start in
  let delivered = st.delivered in
  let rate_a = st.rate in
  let prev_qdelay = ref acc.prev_qdelay in
  let q_prev = ref acc.q_prev in
  let queue_integral = ref acc.queue_integral in
  let last_q = ref acc.last_q in
  for step = from to until - 1 do
    let now = float_of_int step *. dt in
    (* 1. Desired in-flight per flow from the effective queuing delay,
       and the queue fixed point at those windows. *)
    let qdelay = !prev_qdelay in
    let sum = ref 0.0 in
    for i = 0 to n - 1 do
      (match kinds.(i) with
      | Cubic ->
        if slow_start.(i) then
          (* Doubling per (inflated) RTT until the first loss. *)
          w.(i) <- w.(i) *. Float.exp2 (dt /. (rtt.(i) +. qdelay))
        else w.(i) <- cubic_window st i ~now
      | Bbr | Bbr2 ->
        if now < st.probing_until.(i) then w.(i) <- 4.0 *. mss
        else begin
          let btlbw = st.btlbw.(i) in
          let cap = 2.0 *. btlbw *. st.rtprop.(i) in
          let cap =
            match kinds.(i) with
            | Bbr2 -> fmin cap st.inflight_hi.(i)
            | Cubic | Bbr -> cap
          in
          (* The in-flight cap applies immediately (it is a cwnd bound);
             growth toward a raised cap is limited by the pacing surplus
             of the ProbeBW up-phases (~0.25·btlbw). *)
          let wc = st.w_cur.(i) in
          let wc =
            if wc > cap then cap else fmin cap (wc +. (0.25 *. btlbw *. dt))
          in
          st.w_cur.(i) <- wc;
          w.(i) <- fmax (4.0 *. mss) wc
        end);
      sum := !sum +. w.(i)
    done;
    let q_star =
      if uniform then fmax 0.0 (!sum -. cap_rtt0)
      else Queue_fixpoint.solve ~capacity ~w ~rtt ~n ~init:!q_prev
    in
    q_prev := q_star;
    let overflowing = q_star > buffer in
    let q = if overflowing then buffer else q_star in
    let qdelay = q *. inv_capacity in
    prev_qdelay := qdelay;
    (* 2. Overflow: the excess is dropped and eligible flows back off.
       The cold helpers read the queuing delay from the [prev_qdelay]
       slot, so it is written back only on the paths that call them. *)
    if overflowing then begin
      acc.prev_qdelay <- qdelay;
      st.loss_events <- st.loss_events + 1;
      apply_losses st ~step
    end;
    queue_integral := !queue_integral +. (q *. dt);
    last_q := q;
    (* 3. Per-flow throughput (fluid shares at the solved queue, or
       drop-tail shares of the saturated buffer) fused with delivery
       accounting, the BBR bandwidth/RTT estimators, and the BBRv2
       inflight_hi recovery. *)
    (if overflowing then begin
       let total = ref 0.0 in
       for i = 0 to n - 1 do
         let d = w.(i) /. (rtt.(i) +. qdelay) in
         rate_a.(i) <- d;
         total := !total +. d
       done;
       let scale = capacity /. !total in
       for i = 0 to n - 1 do
         rate_a.(i) <- rate_a.(i) *. scale
       done
     end);
    let measuring = now >= swarmup in
    if all_cubic then begin
      (* No estimator state to maintain: the whole pass reduces to
         delivery accounting, and to nothing at all during warm-up. *)
      if measuring then
        if overflowing then
          for i = 0 to n - 1 do
            delivered.(i) <- delivered.(i) +. (rate_a.(i) *. dt)
          done
        else if uniform then begin
          (* One reciprocal for the whole spec instead of one per flow. *)
          let inv_rtt = dt /. (rtt.(0) +. qdelay) in
          for i = 0 to n - 1 do
            delivered.(i) <- delivered.(i) +. (w.(i) *. inv_rtt)
          done
        end
        else
          for i = 0 to n - 1 do
            delivered.(i) <-
              delivered.(i) +. (w.(i) /. (rtt.(i) +. qdelay) *. dt)
          done
    end
    else begin
      let inv_rtt0 =
        if uniform && not overflowing then 1.0 /. (rtt.(0) +. qdelay)
        else 0.0
      in
      for i = 0 to n - 1 do
        let rate =
          if overflowing then rate_a.(i)
          else if uniform then w.(i) *. inv_rtt0
          else w.(i) /. (rtt.(i) +. qdelay)
        in
        if measuring then delivered.(i) <- delivered.(i) +. (rate *. dt);
        match kinds.(i) with
        | Cubic -> ()
        | Bbr | Bbr2 ->
          let inflated_rtt = rtt.(i) +. qdelay in
          (* Bandwidth samples arrive once per (inflated) round trip,
             as in the real delivery-rate estimator; the in-flight ramp
             in the windows pass is what bounds the feedback loop to
             physical timescales. *)
          if now -. st.last_bw_update.(i) >= inflated_rtt then begin
            st.last_bw_update.(i) <- now;
            acc.srate <- rate;
            acc.prev_qdelay <- qdelay;
            update_btlbw st ~i ~step
          end;
          (* ProbeRTT state machine. *)
          if now < st.probing_until.(i) then begin
            st.probe_min_rtt.(i) <- fmin st.probe_min_rtt.(i) inflated_rtt;
            if now +. dt >= st.probing_until.(i) then begin
              st.rtprop.(i) <- st.probe_min_rtt.(i);
              st.rtprop_stamp.(i) <- now
            end
          end
          else if inflated_rtt < st.rtprop.(i) then begin
            st.rtprop.(i) <- inflated_rtt;
            st.rtprop_stamp.(i) <- now
          end
          else if now -. st.rtprop_stamp.(i) > probe_rtt_interval then begin
            st.probing_until.(i) <- now +. probe_rtt_duration;
            st.probe_min_rtt.(i) <- infinity;
            st.rtprop_stamp.(i) <- now
          end;
          (* BBRv2 inflight_hi recovery: multiplicative growth every
             2 s of loss-free cruising. *)
          (match kinds.(i) with
          | Bbr2
            when st.inflight_hi.(i) < infinity
                 && now -. st.last_loss_time.(i) > 2.0
                 && now -. st.last_hi_growth.(i) > 2.0 ->
            st.inflight_hi.(i) <-
              fmin
                (st.inflight_hi.(i) *. 1.25)
                (2.0 *. fmax st.btlbw.(i) fair *. st.rtprop.(i));
            st.last_hi_growth.(i) <- now
          | Cubic | Bbr | Bbr2 -> ())
      done
    end
  done;
  acc.prev_qdelay <- !prev_qdelay;
  acc.q_prev <- !q_prev;
  acc.queue_integral <- !queue_integral;
  acc.last_q <- !last_q;
  acc.queue_time <- acc.queue_time +. (float_of_int (until - from) *. dt)

(* One trace sample of the state after [step] (driver-side: the sample
   consing must stay out of the zero-alloc kernel). *)
let sample_trace (st : arena) ~step =
  {
    t_time = float_of_int step *. st.dt;
    t_queue = st.acc.last_q;
    t_w = Array.copy st.w;
    t_btlbw = Array.copy st.btlbw;
    t_rtprop = Array.copy st.rtprop;
  }

let run config =
  let st = make_arena config in
  let trace_period = Sim_engine.Units.Raw.to_float config.trace_period in
  let trace = ref [] in
  if trace_period <= 0.0 then run_spec st ~from:0 ~until:st.nsteps
  else begin
    (* Traced runs advance one step per kernel call so the sampling
       decision (first step whose time crosses the next sample point,
       post-accounting state) stays exact. *)
    let next_trace = ref 0.0 in
    for step = 0 to st.nsteps - 1 do
      run_spec st ~from:step ~until:(step + 1);
      let now = float_of_int step *. st.dt in
      if now >= !next_trace then begin
        next_trace := now +. trace_period;
        trace := sample_trace st ~step :: !trace
      end
    done
  end;
  let acc = st.acc in
  {
    per_flow_bps = Array.map (fun d -> d /. st.window *. 8.0) st.delivered;
    mean_queue_bytes = acc.queue_integral /. acc.queue_time;
    mean_queuing_delay = acc.queue_integral /. acc.queue_time /. st.capacity;
    loss_events = st.loss_events;
    flow_kinds = Array.copy st.kinds;
    trace = List.rev !trace;
  }

let mean_bps_of_kind result kind =
  let total = ref 0.0 and count = ref 0 in
  Array.iteri
    (fun i k ->
      if k = kind then begin
        total := !total +. result.per_flow_bps.(i);
        incr count
      end)
    result.flow_kinds;
  if !count = 0 then nan else !total /. float_of_int !count

let aggregate_bps_of_kind result kind =
  let total = ref 0.0 in
  Array.iteri
    (fun i k -> if k = kind then total := !total +. result.per_flow_bps.(i))
    result.flow_kinds;
  !total
