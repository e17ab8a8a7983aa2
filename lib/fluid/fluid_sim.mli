(** A fast fluid/round-level simulator of competing CUBIC and BBR flows.

    Purpose: the paper's Nash-Equilibrium experiments (Figs. 9–11) enumerate
    thousands of multi-flow runs; packet-level simulation of all of them is
    needlessly slow. This model keeps the mechanisms the paper's analysis
    depends on and abstracts everything else:

    - CUBIC windows follow Eq. (1) exactly between loss epochs;
    - the shared queue is the fluid fixed point of
      Σᵢ wᵢ/(rttᵢ + q/C) = C (or q = 0 when the link is under-utilized),
      solved by the shared {!Queue_fixpoint} kernel;
    - buffer overflow triggers a back-off event whose victim set is the
      synchronization mode: all CUBIC flows ({!Synchronized}), the largest
      window only ({!Desynchronized}), or each independently with
      probability p ({!Stochastic});
    - BBR keeps cwnd-limited in-flight data 2·btlbw·rtprop, with btlbw a
      windowed max of its achieved rate and rtprop refreshed by periodic
      ProbeRTT episodes during which its in-flight drops to ≈0 and it
      samples the residual queue — the paper's Eq. (9) mechanism;
    - the BBRv2 variant adds a loss-clamped in-flight bound (β = 0.7) with
      multiplicative recovery.

    The implementation is struct-of-arrays with a zero-allocation step loop
    (preallocated scratch, flat-ring bandwidth filters, no per-step
    records/closures/lists): see DESIGN.md "Analytic backends".

    Most callers should not build a {!config} by hand: {!Sim_backend.fluid}
    runs this simulator behind the backend-neutral spec, selecting kinds by
    registry CCA name via {!kind_of_cca}. Cross-validation against the
    packet-level simulator and the ODE backend is part of the test suite
    and EXPERIMENTS.md. *)

type kind = Cubic | Bbr | Bbr2

type flow_spec = { kind : kind; rtt : Sim_engine.Units.seconds }

type sync_mode =
  | Synchronized
  | Desynchronized
  | Stochastic of float  (** Per-flow back-off probability on overflow. *)

type config = {
  capacity_bps : Sim_engine.Units.rate_bps;
  buffer_bytes : Sim_engine.Units.byte_count;
  flows : flow_spec list;
  sync : sync_mode;
  duration : Sim_engine.Units.seconds;
  warmup : Sim_engine.Units.seconds;
  dt : Sim_engine.Units.seconds;  (** Integration step (default 2 ms). *)
  seed : int;
  trace_period : Sim_engine.Units.seconds;
      (** Record a {!trace_sample} this often; 0 = off. *)
}

val default_config : config
(** 100 Mbps, 10 BDP at 40 ms, 1 CUBIC vs 1 BBR, synchronized, 60 s with
    20 s warm-up, dt 2 ms, seed 1. *)

(** {1 Registry-name mapping}

    The one place where {!Cca.Registry} name strings meet fluid kinds;
    everything above the fluid layer (the backend API, tests, drivers)
    selects kinds through these instead of matching strings itself. *)

type unsupported_cca = { cca : string; supported : string list }
(** A CCA name with no fluid counterpart, plus the names that do have one. *)

val supported_ccas : string list
(** [["cubic"; "bbr"; "bbr2"]]. *)

val kind_of_cca : string -> (kind, unsupported_cca) result

val kind_of_cca_exn : string -> kind
(** Raises [Invalid_argument] listing the supported names. *)

val cca_of_kind : kind -> string

type trace_sample = {
  t_time : float;
  t_queue : float;  (** Queue length, bytes. *)
  t_w : float array;  (** Per-flow in-flight targets, bytes. *)
  t_btlbw : float array;  (** Per-flow BBR bandwidth estimates, bytes/s. *)
  t_rtprop : float array;  (** Per-flow BBR RTprop estimates, seconds. *)
}

type result = {
  per_flow_bps : float array;  (** Mean goodput over the window. *)
  mean_queue_bytes : float;
  mean_queuing_delay : float;
  loss_events : int;
  flow_kinds : kind array;
  trace : trace_sample list;  (** Populated when [trace_period > 0]. *)
}

val run : config -> result
(** Advance one config over its own struct-of-arrays arena with a
    zero-allocation step loop. Raises [Invalid_argument] on an empty flow
    list, a [dt], duration, capacity, buffer or flow RTT that is not finite
    and positive, a warm-up outside [\[0, duration)], or [Stochastic p]
    with [p] outside [\[0, 1\]]. *)

val mean_bps_of_kind : result -> kind -> float
(** Mean per-flow goodput over flows of the given kind; [nan] if none. *)

val aggregate_bps_of_kind : result -> kind -> float
