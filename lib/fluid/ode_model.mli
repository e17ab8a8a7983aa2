(** Control-theoretic ODE model of BBR/CUBIC competition.

    Where {!Fluid_sim} keeps the discrete mechanisms (loss rounds, ProbeRTT
    episodes, windowed max filters) and steps them in time, this backend
    follows the Scherrer-style control-theoretic formulation: all of those
    mechanisms are smoothed into a coupled ODE system over per-flow state,
    and the trajectory is integrated with RK4 (fixed-step or step-doubling
    adaptive). Loss back-off becomes a continuous decay proportional to the
    overflow drop rate, the BBR bandwidth max-filter becomes asymmetric
    first-order tracking (fast rise over ~1 RTT, slow decay over ~10 RTTs),
    and ProbeRTT's residual-queue sampling becomes an RTprop estimate of
    [base rtt + queue_delay·(1 − share)].

    Because the dynamics are smooth, the model settles on fixed points
    instead of sawtoothing. Its result carries what the experiments read
    from any backend: per-flow goodput, the mean queue and the expected
    number of loss back-offs, plus the integrator's step counts.

    Steady-state shares are calibrated against {!Fluid_sim} on the
    differential grid (see [test/test_packet_vs_fluid.ml]); the two agree
    within 5% there. Like the fluid backend, most callers should reach
    this through {!Sim_backend.ode}. The model is deterministic — no RNG
    is consumed. *)

type integrator =
  | Rk4 of Sim_engine.Units.seconds  (** Fixed-step RK4 with this [dt]. *)
  | Adaptive of {
      tol : float;  (** Relative local-error tolerance (e.g. 1e-4). *)
      dt_init : Sim_engine.Units.seconds;
      dt_max : Sim_engine.Units.seconds;
    }
      (** Step-doubling RK4: each step is compared against two half steps,
          accepted with Richardson extrapolation when the scaled error is
          below [tol], and the step size adapts by the usual fifth-order
          rule. *)

type config = {
  capacity_bps : Sim_engine.Units.rate_bps;
  buffer_bytes : Sim_engine.Units.byte_count;
  flows : Fluid_sim.flow_spec list;
  duration : Sim_engine.Units.seconds;
  warmup : Sim_engine.Units.seconds;
      (** Goodput/queue means are taken over [warmup, duration]. *)
  integrator : integrator;
}

val default_config : config
(** 100 Mbps, 10 BDP at 40 ms, 1 CUBIC vs 1 BBR, 60 s with 20 s warm-up,
    adaptive integrator (tol 1e-4). *)

type result = {
  per_flow_bps : float array;
  flow_kinds : Fluid_sim.kind array;
  mean_queue_bytes : float;
  mean_queuing_delay : float;
  expected_backoffs : float;
      (** Time-integral of the smoothed loss-event rate over the
          loss-responsive flows — the ODE analogue of
          {!Fluid_sim.result.loss_events}. *)
  steps : int;  (** Accepted integrator steps. *)
  rejected_steps : int;  (** Adaptive rejections (0 under {!Rk4}). *)
}

val run : config -> result
(** Integrates the system from a cold (slow-start-sized) initial state.
    Raises [Invalid_argument] on an empty flow list, a quantity that is
    non-positive or not finite (NaN included), or [warmup >= duration]. *)

val mean_bps_of_kind : result -> Fluid_sim.kind -> float
(** Mean per-flow goodput over flows of the given kind; [nan] if none. *)
