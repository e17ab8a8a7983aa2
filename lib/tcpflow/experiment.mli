(** Packet-level experiment runner: the in-simulator equivalent of the
    paper's testbed runs.

    An experiment places a set of flows (each with a CCA name from
    {!Cca.Registry} and a base RTT) on one bottleneck, runs for a simulated
    duration, and reports per-flow goodput plus the queue statistics the
    paper's model reasons about (mean queuing delay, per-class buffer
    occupancy, CUBIC's minimum/maximum occupancy). *)

type flow_config = {
  cca : string;  (** Registry name, e.g. ["cubic"] or ["bbr"]. *)
  base_rtt : Sim_engine.Units.seconds;  (** Two-way propagation delay. *)
  start_time : Sim_engine.Units.seconds;  (** When the flow starts sending. *)
}

val flow_config :
  ?start_time:Sim_engine.Units.seconds ->
  ?base_rtt:Sim_engine.Units.seconds ->
  string ->
  flow_config
(** Convenience constructor; default RTT 40 ms, start 0. *)

type aqm =
  | Tail_drop  (** The paper's drop-tail setting. *)
  | Red_default  (** RED with {!Netsim.Droptail_queue.red_defaults}. *)

type workload = {
  wl_arrival : Workload.Arrival.t;
  wl_sizes : Workload.Dist.t;
  wl_cca : string;  (** CCA every short flow runs. *)
  wl_rtt : Sim_engine.Units.seconds;  (** Base RTT of every short flow. *)
}
(** An open-loop short-flow population sharing the bottleneck with the
    static flows: a {!Workload.Schedule.t} is generated from the config
    seed at setup (workload stream split first, so the schedule is
    independent of the static flow list) and driven by {!Churn}. *)

type config = {
  rate_bps : Sim_engine.Units.rate_bps;  (** Bottleneck capacity. *)
  buffer_bytes : int;  (** Bottleneck buffer size. *)
  flows : flow_config list;
  duration : Sim_engine.Units.seconds;  (** Total simulated time. *)
  warmup : Sim_engine.Units.seconds;
      (** Measurement starts here (excludes slow start). *)
  seed : int;
  sample_period : Sim_engine.Units.seconds;  (** Queue sampling period. *)
  aqm : aqm;  (** Bottleneck drop policy. *)
  workload : workload option;  (** Open-loop churn population, if any. *)
}

val default_config : config
(** 100 Mbps, 40 ms, 10 BDP buffer, 1 CUBIC vs 1 BBR, 40 s run with 10 s
    warm-up, seed 1, 1 ms sampling. *)

val config :
  ?aqm:aqm ->
  ?warmup:Sim_engine.Units.seconds ->
  ?sample_period:Sim_engine.Units.seconds ->
  ?seed:int ->
  ?workload:workload ->
  rate_bps:Sim_engine.Units.rate_bps ->
  buffer_bytes:int ->
  duration:Sim_engine.Units.seconds ->
  flow_config list ->
  config
(** Labelled builder, the preferred way to assemble a config. Defaults:
    drop-tail, no warm-up, 1 ms sampling, seed 1, no workload. Raises
    [Invalid_argument] on an empty flow list unless a workload is given. *)

val digest : config -> string
(** Hex digest of the full config (every field participates): the
    content-address under which {!Sim_engine.Exec.Cache} keys a run's
    {!result}. *)

val buffer_bytes_of_bdp :
  rate_bps:Sim_engine.Units.rate_bps ->
  rtt:Sim_engine.Units.seconds ->
  bdp:float ->
  int
(** Buffer size for a multiple [bdp] of the bandwidth-delay product,
    at least one MSS. *)

type flow_result = {
  flow_id : int;
  flow_cca : string;
  flow_rtt : float;
  throughput_bps : float;  (** Goodput over the measurement window. *)
  flow_lost_segments : int;
  flow_retransmitted : int;
  flow_min_rtt : float;
}

type completion = {
  cp_item : int;  (** Position in the workload schedule. *)
  cp_arrival : float;  (** Arrival instant (sim seconds). *)
  cp_size : int;  (** Transfer size in bytes. *)
  cp_fct : float;  (** Flow-completion time in seconds. *)
}
(** Per-flow completion record for one open-loop transfer. *)

type result = {
  config : config;
  per_flow : flow_result list;
  queuing_delay : float;  (** Time-weighted mean over the window, seconds. *)
  queue_mean_bytes : float;
  class_mean_bytes : (string * float) list;  (** Per-CCA occupancy means. *)
  class_min_bytes : (string * float) list;  (** Per-CCA occupancy minima. *)
  class_max_bytes : (string * float) list;
  drops : int;
  utilization : float;  (** Whole-run link utilization (approximate). *)
  workload_arrived : int;  (** Short flows that arrived before the horizon. *)
  workload_completed : int;  (** Short flows fully acknowledged. *)
  workload_delivered_bytes : float;
      (** Bytes delivered by completed short flows. *)
  completions : completion list;
      (** Completion records in schedule order (cut-off flows omitted);
          empty without a workload. *)
}

val run : ?trace:Sim_engine.Trace.t -> config -> result
(** When [trace] is given, the dumbbell and every sender emit into it, and
    one periodic tick emits a [Cc_sample] of each static flow's congestion
    state (cwnd, bytes in flight, pacing rate, delivered bytes, CCA state)
    every [sample_period] from time 0, so a sink subscribed before [run]
    sees the full event stream. Nothing is retained beyond the hub's own
    ring. [trace] deliberately does not participate in {!digest}: tracing
    must not perturb cache keys or results.

    Equivalent to [finish (setup ?trace config)]. *)

type live
(** A fully wired but not-yet-run experiment: the simulator, network and
    senders of one {!config}, exposed so harnesses (the fuzz driver, the
    invariant auditor) can attach probes and cross-check live component
    state before and during the run. *)

val setup : ?trace:Sim_engine.Trace.t -> config -> live
(** Build the simulator, bottleneck and senders for [config] without
    advancing the clock, and start the periodic ticks: the queue tick,
    which every [sample_period] from time 0 folds the total and each
    CCA's queue occupancy into running statistics over
    [\[warmup, duration\]] and keeps no sample, and (when traced) the
    congestion-state sampling tick. Raises [Invalid_argument] when
    [config.warmup >= config.duration] or [sample_period] is not
    positive. *)

val live_sim : live -> Sim_engine.Sim.t
val live_net : live -> Netsim.Dumbbell.t
val live_senders : live -> Sender.t array
(** Senders in flow-id order: [live_senders l).(i)] drives flow [i]. *)

val live_churn : live -> Churn.t option
(** The open-loop churn driver, when the config carries a workload. *)

val finish : live -> result
(** Run the simulation to [config.duration] (a no-op if a caller already
    advanced the clock there via {!live_sim}), compute the {!result}, its
    queue statistics read from the queue tick's running sums, and stop
    both ticks. Call at most once. *)

val throughput_of_cca : result -> string -> float list
(** Per-flow goodputs (bits/s) of all flows running the named CCA. *)

val mean_throughput_of_cca : result -> string -> float
(** Mean of {!throughput_of_cca}; [nan] when no flow runs that CCA. *)

val aggregate_throughput_of_cca : result -> string -> float
