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

    Because the dynamics are smooth, the model converges to fixed points
    instead of sawtoothing, which makes it the natural backend for
    stability and fairness questions: the result carries Jain's index,
    convergence time, and residual oscillation amplitude (via
    {!Ccmodel.Fairness}).

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
  sample_period : Sim_engine.Units.seconds;
      (** Rate-trajectory sampling period for the stability metrics. *)
}

val default_config : config
(** 100 Mbps, 10 BDP at 40 ms, 1 CUBIC vs 1 BBR, 60 s with 20 s warm-up,
    adaptive integrator (tol 1e-4), 50 ms sampling. *)

type metrics = {
  jain_index : float;
      (** Jain's index over the per-flow mean goodputs; in (0, 1]. *)
  convergence_time : float;
      (** Earliest time (s, from sim start) after which every flow's
          sampled rate stays within 10% (rel) / 2% of capacity (abs) of
          its final value; [infinity] if the trajectory never settles. *)
  oscillation_bps : float;
      (** Max over flows of the peak-to-peak rate excursion over the
          trailing 30% of the samples. *)
}

type result = {
  per_flow_bps : float array;
  flow_kinds : Fluid_sim.kind array;
  mean_queue_bytes : float;
  mean_queuing_delay : float;
  expected_backoffs : float;
      (** Time-integral of the smoothed loss-event rate over the
          loss-responsive flows — the ODE analogue of
          {!Fluid_sim.result.loss_events}. *)
  metrics : metrics;
  steps : int;  (** Accepted integrator steps. *)
  rejected_steps : int;  (** Adaptive rejections (0 under {!Rk4}). *)
}

val run : config -> result
(** Integrates the system from a cold (slow-start-sized) initial state.
    Raises [Invalid_argument] on an empty flow list, non-positive
    durations/steps, or [warmup >= duration]. *)

val mean_bps_of_kind : result -> Fluid_sim.kind -> float
(** Mean per-flow goodput over flows of the given kind; [nan] if none. *)
