type integrator =
  | Rk4 of Sim_engine.Units.seconds
  | Adaptive of {
      tol : float;
      dt_init : Sim_engine.Units.seconds;
      dt_max : Sim_engine.Units.seconds;
    }

type config = {
  capacity_bps : Sim_engine.Units.rate_bps;
  buffer_bytes : Sim_engine.Units.byte_count;
  flows : Fluid_sim.flow_spec list;
  duration : Sim_engine.Units.seconds;
  warmup : Sim_engine.Units.seconds;
  integrator : integrator;
}

let default_config =
  let capacity_bps = Sim_engine.Units.mbps 100.0 in
  let rtt = Sim_engine.Units.ms 40.0 in
  {
    capacity_bps;
    buffer_bytes =
      Sim_engine.Units.scale 10.0
        (Sim_engine.Units.bdp_bytes ~rate_bps:capacity_bps ~rtt);
    flows =
      [
        { Fluid_sim.kind = Fluid_sim.Cubic; rtt };
        { Fluid_sim.kind = Fluid_sim.Bbr; rtt };
      ];
    duration = Sim_engine.Units.seconds 60.0;
    warmup = Sim_engine.Units.seconds 20.0;
    integrator =
      Adaptive
        {
          tol = 1e-4;
          dt_init = Sim_engine.Units.ms 2.0;
          dt_max = Sim_engine.Units.ms 100.0;
        };
  }

type result = {
  per_flow_bps : float array;
  flow_kinds : Fluid_sim.kind array;
  mean_queue_bytes : float;
  mean_queuing_delay : float;
  expected_backoffs : float;
  steps : int;
  rejected_steps : int;
}

let mss = float_of_int Sim_engine.Units.mss
let ln2 = Float.log 2.0

let[@inline] fmin (a : float) b = if a <= b then a else b
let[@inline] fmax (a : float) b = if a >= b then a else b
let[@inline] fclamp lo hi v = fmax lo (fmin hi v)

(* --- Model constants ------------------------------------------------ *)

(* CUBIC's dw/dt between losses is 3c(t−K)², i.e. 3·c^(1/3)·|w−w_max|^(2/3)
   in MSS/s when expressed in window terms (same c as the fluid sim). *)
let cubic_c = 0.4
let cubic_gain = 3.0 *. Float.cbrt cubic_c
let cubic_beta = 0.3

(* Probing floor (MSS per RTT): the cubic curve has zero slope exactly at
   the plateau w = w_max, which in the autonomous reduction would be an
   asymptote the window never crosses; real CUBIC crosses it because time
   keeps advancing. A small constant probing term restores that. *)
let cubic_floor_mss = 0.3

(* Loss-event saturation: the overflow drop fraction p maps to a back-off
   rate of p/(p+p0) events per RTT, approaching once-per-RTT as the
   overflow deepens. *)
let p0 = 0.02

(* BBR bandwidth tracking: fast rise (the max filter latches a new peak in
   one RTT), slow decay (a stale peak persists for the ~10-RTT window). *)
let bw_tc_up = 1.0
let bw_tc_down = 10.0

(* RTprop residual: ProbeRTT drains this flow's own contribution, so the
   estimate settles at base + γ·qdelay·(1 − share). γ < 1 accounts for the
   sawtoothing queue of the round-based sim averaging below its cap; the
   value is calibrated against {!Fluid_sim} on the differential grid. *)
let residual_gamma = 0.84

(* BBRv2 inflight_hi multiplicative recovery (×1.25 every 2 s, as in the
   fluid sim), as a continuous rate. *)
let hi_recovery_rate = Float.log 1.25 /. 2.0

(* --- Preallocated run state ----------------------------------------- *)

(* State vector layout: 3 slots per flow.
   [3i]   window / in-flight target w, bytes
   [3i+1] CUBIC: w_max (bytes); BBR/BBRv2: btlbw estimate (bytes/s)
   [3i+2] BBRv2: inflight_hi (bytes); otherwise unused (zero derivative) *)

(* What [compute_rates] leaves behind. All-float, so writing a slot boxes
   nothing. *)
type acc = {
  mutable q : float;  (* buffer-clamped queue, bytes *)
  mutable p : float;  (* overflow drop fraction *)
  mutable warm : float;  (* warm start for the fixed-point solve *)
}

(* What [account] sums over the run. All-float for the same reason: a
   [float ref] captured by a closure costs a box and a write barrier per
   update. *)
type totals = {
  mutable queue_integral : float;  (* ∫ q dt over the measured window *)
  mutable measured : float;  (* seconds of that window integrated so far *)
  mutable backoffs : float;  (* ∫ loss-event rate dt *)
}

type arena = {
  n : int;  (* flows *)
  capacity : float;  (* bytes/s *)
  buffer : float;  (* bytes *)
  fair : float;  (* capacity / n *)
  warmup : float;  (* s; goodput/queue means start here *)
  acc : acc;
  tot : totals;
  mutable steps : int;  (* accepted integrator steps *)
  mutable rejected : int;  (* adaptive rejections *)
  (* Per flow. *)
  kinds : Fluid_sim.kind array;
  rtt : float array;
  w_floor : float array;
  w_ceil : float array;
  w : float array; (* clamped windows for the queue solve *)
  x : float array; (* per-flow rates, bytes/s *)
  delivered : float array; (* bytes delivered over the measured window *)
  startup : bool array;
      (* CUBIC slow start — exponential growth until the first overflow,
         mirroring the fluid model's doubling phase. BBR's window-tracking
         dynamics are already exponential from a cold start, so only CUBIC
         flows begin [true]. *)
  (* Per state slot (3 per flow). *)
  y : float array;
  k1y : float array; (* deriv at the accepted state, cached across retries *)
  k1 : float array;
  k2 : float array;
  k3 : float array;
  k4 : float array;
  ytmp : float array;
  y_full : float array; (* step-doubling scratch *)
  y_mid : float array;
  y_half : float array;
}

(* Every quantity must be finite; each bound is stated so that NaN fails
   it ([nan <= 0.0] is false). *)
let validate (config : config) =
  let module Raw = Sim_engine.Units.Raw in
  let positive x = Float.is_finite x && x > 0.0 in
  let duration = Raw.to_float config.duration in
  let warmup = Raw.to_float config.warmup in
  if not (positive duration) then
    invalid_arg "Ode_model: duration must be > 0";
  if not (warmup >= 0.0 && warmup < duration) then
    invalid_arg "Ode_model: need 0 <= warmup < duration";
  if config.flows = [] then invalid_arg "Ode_model: no flows";
  if not (positive (Sim_engine.Units.bytes_per_sec config.capacity_bps)) then
    invalid_arg "Ode_model: capacity must be > 0";
  if not (positive (Raw.to_float config.buffer_bytes)) then
    invalid_arg "Ode_model: buffer must be > 0";
  (match config.integrator with
  | Rk4 dt ->
    if not (positive (Raw.to_float dt)) then
      invalid_arg "Ode_model: Rk4 dt must be > 0"
  | Adaptive { tol; dt_init; dt_max } ->
    if not (positive tol) then
      invalid_arg "Ode_model: Adaptive tol must be > 0";
    if not (positive (Raw.to_float dt_init) && positive (Raw.to_float dt_max))
    then invalid_arg "Ode_model: Adaptive steps must be > 0");
  List.iter
    (fun (f : Fluid_sim.flow_spec) ->
      if not (positive (Raw.to_float f.rtt)) then
        invalid_arg "Ode_model: flow rtt must be > 0")
    config.flows

(* Build the arena; [validate] has already run, so no exception can escape
   mid-build. *)
let make_arena (c : config) =
  let n = List.length c.flows in
  let cap = Sim_engine.Units.bytes_per_sec c.capacity_bps in
  let buf = Sim_engine.Units.Raw.to_float c.buffer_bytes in
  let kinds = Array.make n Fluid_sim.Cubic in
  let rtt = Array.make n 0.0 in
  let w_floor = Array.make n 0.0 in
  let w_ceil = Array.make n 0.0 in
  let startup = Array.make n false in
  let y = Array.make (3 * n) 0.0 in
  List.iteri
    (fun i (f : Fluid_sim.flow_spec) ->
      kinds.(i) <- f.kind;
      rtt.(i) <- Sim_engine.Units.Raw.to_float f.rtt;
      w_floor.(i) <-
        (match f.kind with
        | Fluid_sim.Cubic -> 2.0 *. mss
        | Fluid_sim.Bbr | Fluid_sim.Bbr2 -> 4.0 *. mss);
      w_ceil.(i) <- (4.0 *. cap *. (rtt.(i) +. (buf /. cap))) +. (16.0 *. mss);
      startup.(i) <- f.kind = Fluid_sim.Cubic;
      let w0 = 10.0 *. mss in
      y.(3 * i) <- w0;
      (match f.kind with
      | Fluid_sim.Cubic -> y.((3 * i) + 1) <- w0
      | Fluid_sim.Bbr | Fluid_sim.Bbr2 -> y.((3 * i) + 1) <- w0 /. rtt.(i));
      y.((3 * i) + 2) <-
        (match f.kind with
        | Fluid_sim.Bbr2 -> 2.0 *. cap *. (rtt.(i) +. (buf /. cap))
        | Fluid_sim.Cubic | Fluid_sim.Bbr -> 0.0))
    c.flows;
  let slots () = Array.make (3 * n) 0.0 in
  {
    n;
    capacity = cap;
    buffer = buf;
    fair = cap /. float_of_int n;
    warmup = Sim_engine.Units.Raw.to_float c.warmup;
    acc = { q = 0.0; p = 0.0; warm = 0.0 };
    tot = { queue_integral = 0.0; measured = 0.0; backoffs = 0.0 };
    steps = 0;
    rejected = 0;
    kinds;
    rtt;
    w_floor;
    w_ceil;
    w = Array.make n 0.0;
    x = Array.make n 0.0;
    delivered = Array.make n 0.0;
    startup;
    y;
    k1y = slots ();
    k1 = slots ();
    k2 = slots ();
    k3 = slots ();
    k4 = slots ();
    ytmp = slots ();
    y_full = slots ();
    y_mid = slots ();
    y_half = slots ();
  }

(* Queue fixed point and per-flow rates at state [y]; leaves the clamped
   queue in [acc.q] and the overflow drop fraction in [acc.p]. *)
let compute_rates st y =
  let n = st.n in
  let capacity = st.capacity in
  let acc = st.acc in
  let w = st.w and rtt = st.rtt and x = st.x in
  for i = 0 to n - 1 do
    let wi = y.(3 * i) in
    w.(i) <-
      (if wi < st.w_floor.(i) then st.w_floor.(i)
       else if wi > st.w_ceil.(i) then st.w_ceil.(i)
       else wi)
  done;
  let qstar = Queue_fixpoint.solve ~capacity ~w ~rtt ~n ~init:acc.warm in
  acc.warm <- qstar;
  let buffer = st.buffer in
  let q = fmin qstar buffer in
  let qdelay = q /. capacity in
  if qstar > buffer then begin
    (* Drop-tail: demands scaled so the served rates sum to capacity. *)
    let sumd = ref 0.0 in
    for i = 0 to n - 1 do
      let d = w.(i) /. (rtt.(i) +. qdelay) in
      x.(i) <- d;
      sumd := !sumd +. d
    done;
    let scale = capacity /. !sumd in
    for i = 0 to n - 1 do
      x.(i) <- x.(i) *. scale
    done;
    acc.p <- (!sumd -. capacity) /. !sumd
  end
  else begin
    for i = 0 to n - 1 do
      x.(i) <- w.(i) /. (rtt.(i) +. qdelay)
    done;
    acc.p <- 0.0
  end;
  acc.q <- q

let deriv st y dy =
  compute_rates st y;
  let capacity = st.capacity in
  let qdelay = st.acc.q /. capacity in
  let p = st.acc.p in
  let nu_rtt = p /. (p +. p0) in
  (* back-off events per RTT *)
  for i = 0 to st.n - 1 do
    let rtt_eff = st.rtt.(i) +. qdelay in
    let nu = nu_rtt /. rtt_eff in
    (* events/s *)
    match st.kinds.(i) with
    | Fluid_sim.Cubic ->
      let w = y.(3 * i) in
      if st.startup.(i) then begin
        (* Slow start: double per (inflated) RTT until the first
           overflow ends the phase (see [account]). *)
        dy.(3 * i) <- ln2 *. w /. rtt_eff;
        dy.((3 * i) + 1) <- 0.0;
        dy.((3 * i) + 2) <- 0.0
      end
      else begin
        let m = y.((3 * i) + 1) in
        let dmss = Float.abs (w -. m) /. mss in
        (* dmss^(2/3) as a squared cube root: [Float.cbrt] is several
           times cheaper than the general [( ** )] on this hot path. *)
        let cb = Float.cbrt dmss in
        let grow_mss =
          (cubic_gain *. (cb *. cb)) +. (cubic_floor_mss /. rtt_eff)
        in
        dy.(3 * i) <- (grow_mss *. mss) -. (cubic_beta *. w *. nu);
        dy.((3 * i) + 1) <- (w -. m) *. nu;
        dy.((3 * i) + 2) <- 0.0
      end
    | Fluid_sim.Bbr | Fluid_sim.Bbr2 ->
      let w = y.(3 * i) in
      let b = fmax y.((3 * i) + 1) (mss /. st.rtt.(i)) in
      let x = st.x.(i) in
      let share = fmin 1.0 (x /. capacity) in
      let rtprop =
        st.rtt.(i) +. (residual_gamma *. qdelay *. (1.0 -. share))
      in
      let target =
        match st.kinds.(i) with
        | Fluid_sim.Bbr2 ->
          let h = fmax y.((3 * i) + 2) (4.0 *. mss) in
          fmin (2.0 *. b *. rtprop) h
        | Fluid_sim.Bbr | Fluid_sim.Cubic -> 2.0 *. b *. rtprop
      in
      dy.(3 * i) <- (target -. w) /. rtt_eff;
      dy.((3 * i) + 1) <-
        (x -. b) /. (rtt_eff *. if x > b then bw_tc_up else bw_tc_down);
      (match st.kinds.(i) with
      | Fluid_sim.Bbr2 ->
        let h = fmax y.((3 * i) + 2) (4.0 *. mss) in
        let h_cap = 2.0 *. fmax b st.fair *. rtprop in
        let recover =
          if nu_rtt < 1e-3 && h < h_cap then hi_recovery_rate *. h else 0.0
        in
        dy.((3 * i) + 2) <- recover -. (cubic_beta *. fmin w h *. nu)
      | Fluid_sim.Bbr | Fluid_sim.Cubic -> dy.((3 * i) + 2) <- 0.0)
  done

(* One classical RK4 step from [y] into [out], with the first stage
   derivative [k1] precomputed by the caller ([deriv st y k1]): the
   adaptive loop shares one stage-1 evaluation between the full step and
   the first half step, and keeps it across rejected retries. out == y is
   allowed: [y] is only read while building the stage states. Inlined,
   like [step_error] and [account] below, so that no float crosses a call
   boxed. *)
let[@inline] rk4_step st ~dt ~y ~k1 ~out =
  let last = (3 * st.n) - 1 in
  let ytmp = st.ytmp in
  for s = 0 to last do
    ytmp.(s) <- y.(s) +. (0.5 *. dt *. k1.(s))
  done;
  deriv st ytmp st.k2;
  let k2 = st.k2 in
  for s = 0 to last do
    ytmp.(s) <- y.(s) +. (0.5 *. dt *. k2.(s))
  done;
  deriv st ytmp st.k3;
  let k3 = st.k3 in
  for s = 0 to last do
    ytmp.(s) <- y.(s) +. (dt *. k3.(s))
  done;
  deriv st ytmp st.k4;
  let k4 = st.k4 in
  let c = dt /. 6.0 in
  for s = 0 to last do
    out.(s) <-
      y.(s)
      +. (c *. (k1.(s) +. (2.0 *. k2.(s)) +. (2.0 *. k3.(s)) +. k4.(s)))
  done

(* Projection after an accepted step: keep every component in its
   physically meaningful box so the smoothed dynamics stay well-posed. *)
let clamp_state st =
  let y = st.y in
  for i = 0 to st.n - 1 do
    y.(3 * i) <- fclamp st.w_floor.(i) st.w_ceil.(i) y.(3 * i);
    (match st.kinds.(i) with
    | Fluid_sim.Cubic ->
      y.((3 * i) + 1) <- fclamp (2.0 *. mss) st.w_ceil.(i) y.((3 * i) + 1)
    | Fluid_sim.Bbr | Fluid_sim.Bbr2 ->
      y.((3 * i) + 1) <-
        fclamp (mss /. st.rtt.(i)) (2.0 *. st.capacity) y.((3 * i) + 1));
    match st.kinds.(i) with
    | Fluid_sim.Bbr2 ->
      y.((3 * i) + 2) <- fclamp (4.0 *. mss) st.w_ceil.(i) y.((3 * i) + 2)
    | Fluid_sim.Cubic | Fluid_sim.Bbr -> ()
  done

(* Scaled max-norm distance between the full-step and half-step results. *)
let[@inline] step_error st =
  let err = ref 0.0 in
  for s = 0 to (3 * st.n) - 1 do
    let scale = fmax (Float.abs st.y_half.(s)) mss in
    let e = Float.abs (st.y_full.(s) -. st.y_half.(s)) /. scale in
    if e > !err then err := e
  done;
  !err

let dt_min = 1e-5

(* Goodput/queue accounting over [t_new - dt, t_new] at the just-accepted
   state, and the slow-start exit. *)
let[@inline] account st t_new dt =
  compute_rates st st.y;
  let n = st.n and acc = st.acc and tot = st.tot in
  let overlap = fmin dt (fmax 0.0 (t_new -. st.warmup)) in
  if overlap > 0.0 then begin
    for i = 0 to n - 1 do
      st.delivered.(i) <- st.delivered.(i) +. (st.x.(i) *. overlap)
    done;
    tot.queue_integral <- tot.queue_integral +. (acc.q *. overlap);
    tot.measured <- tot.measured +. overlap
  end;
  let nu_rtt = acc.p /. (acc.p +. p0) in
  if nu_rtt > 0.0 then begin
    let qdelay = acc.q /. st.capacity in
    for i = 0 to n - 1 do
      match st.kinds.(i) with
      | Fluid_sim.Cubic | Fluid_sim.Bbr2 ->
        tot.backoffs <- tot.backoffs +. (nu_rtt /. (st.rtt.(i) +. qdelay) *. dt)
      | Fluid_sim.Bbr -> ()
    done
  end;
  (* Slow-start exit: the first overflow ends every CUBIC startup phase
     with the fluid model's backoff (w_max := w, then w := 0.7 w). A
     discrete event, like the clamping projection: from here the
     continuous loss term takes over. *)
  if acc.p > 0.0 then
    for i = 0 to n - 1 do
      if st.startup.(i) then begin
        st.startup.(i) <- false;
        st.y.((3 * i) + 1) <- st.y.(3 * i);
        st.y.(3 * i) <- fmax (2.0 *. mss) (0.7 *. st.y.(3 * i))
      end
    done

(* Fixed-step RK4 from t = 0 to [duration]; the last step is shortened to
   land on it. *)
let run_fixed st ~duration ~dt0 =
  let t = ref 0.0 in
  while !t < duration -. 1e-12 do
    let dt = fmin dt0 (duration -. !t) in
    deriv st st.y st.k1y;
    rk4_step st ~dt ~y:st.y ~k1:st.k1y ~out:st.y;
    clamp_state st;
    t := !t +. dt;
    st.steps <- st.steps + 1;
    account st !t dt
  done

(* Step-doubling RK4 from t = 0 to [duration]: each step is compared with
   two half steps and accepted, Richardson-extrapolated, when the scaled
   error is within [tol]. *)
let run_adaptive st ~duration ~tol ~dt_init ~dt_max =
  let t = ref 0.0 in
  let dt = ref dt_init in
  (* [k1y] caches deriv at the accepted state: the full step and the
     first half step share it, and a rejected attempt reuses it. *)
  let k1_valid = ref false in
  while !t < duration -. 1e-12 do
    let h = fmin (fmin !dt dt_max) (duration -. !t) in
    let h = fmax h dt_min in
    if not !k1_valid then begin
      deriv st st.y st.k1y;
      k1_valid := true
    end;
    rk4_step st ~dt:h ~y:st.y ~k1:st.k1y ~out:st.y_full;
    rk4_step st ~dt:(0.5 *. h) ~y:st.y ~k1:st.k1y ~out:st.y_mid;
    deriv st st.y_mid st.k1;
    rk4_step st ~dt:(0.5 *. h) ~y:st.y_mid ~k1:st.k1 ~out:st.y_half;
    let err = step_error st in
    if err <= tol || h <= dt_min then begin
      (* Accept, with Richardson extrapolation of the half-step pair. *)
      for s = 0 to (3 * st.n) - 1 do
        st.y.(s) <-
          st.y_half.(s) +. ((st.y_half.(s) -. st.y_full.(s)) /. 15.0)
      done;
      clamp_state st;
      k1_valid := false;
      t := !t +. h;
      st.steps <- st.steps + 1;
      account st !t h;
      let grow =
        if err <= 0.0 then 2.0 else fmin 2.0 (0.9 *. ((tol /. err) ** 0.2))
      in
      dt := fmin dt_max (h *. fmax 0.3 grow)
    end
    else begin
      st.rejected <- st.rejected + 1;
      dt := fmax dt_min (h *. fmax 0.3 (0.9 *. ((tol /. err) ** 0.2)))
    end
  done

(* Integrate from the cold initial state to [duration]. *)
let run (config : config) =
  let module Raw = Sim_engine.Units.Raw in
  validate config;
  let st = make_arena config in
  let duration = Raw.to_float config.duration in
  (* An accounting pass at t = 0 integrates nothing but can end slow
     start. Its queue solve and the one before it also move the fixed
     point's warm start, which every later solve begins from. *)
  compute_rates st st.y;
  account st 0.0 0.0;
  (match config.integrator with
  | Rk4 dt0 -> run_fixed st ~duration ~dt0:(Raw.to_float dt0)
  | Adaptive { tol; dt_init; dt_max } ->
    run_adaptive st ~duration ~tol ~dt_init:(Raw.to_float dt_init)
      ~dt_max:(Raw.to_float dt_max));
  let tot = st.tot in
  let window = fmax tot.measured 1e-9 in
  let per_flow_bps =
    Array.map
      (fun d -> d /. window *. Sim_engine.Units.bits_per_byte)
      st.delivered
  in
  {
    per_flow_bps;
    flow_kinds = Array.copy st.kinds;
    mean_queue_bytes = tot.queue_integral /. window;
    mean_queuing_delay = tot.queue_integral /. window /. st.capacity;
    expected_backoffs = tot.backoffs;
    steps = st.steps;
    rejected_steps = st.rejected;
  }

let mean_bps_of_kind res kind =
  let sum = ref 0.0 and count = ref 0 in
  Array.iteri
    (fun i k ->
      if k = kind then begin
        sum := !sum +. res.per_flow_bps.(i);
        incr count
      end)
    res.flow_kinds;
  if !count = 0 then nan else !sum /. float_of_int !count
