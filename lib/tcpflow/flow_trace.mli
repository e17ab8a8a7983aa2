(** Periodic sampling of a sender's congestion state into time series —
    the in-simulator equivalent of the kernel's tcp_probe / ss traces that
    papers plot cwnd dynamics from.

    A trace samples cwnd, bytes in flight, pacing rate, delivered bytes and
    the CCA's state string every [period] seconds until stopped.

    The tracer is seated on the telemetry event stream: each tick emits a
    [Sim_engine.Trace.Cc_sample] event into its hub (a caller-supplied one,
    or a private hub), and the tracer's own sample list fills in through a
    hub subscription — so a JSONL writer or metrics rollup subscribed to
    the same hub sees exactly the samples recorded here. *)

type t

type sample = {
  time : float;
  cwnd_bytes : float;
  inflight_bytes : int;
  pacing_rate : float option;  (** Bytes/s; [None] for ACK-clocked CCAs. *)
  delivered_bytes : float;
  cc_state : string;
}

val cc_sample : Sender.t -> Sim_engine.Trace.event
(** The [Cc_sample] event for the sender's congestion state right now. The
    one place that record is built: a tracer's tick emits it, and so does
    the sampling tick of a traced {!Experiment}. *)

val attach :
  ?trace:Sim_engine.Trace.t ->
  sim:Sim_engine.Sim.t ->
  sender:Sender.t ->
  period:float ->
  unit ->
  t
(** Starts sampling immediately, then every [period] seconds. [trace] is
    the hub the samples flow through (sharing one hub across flows is fine:
    each tracer filters on its sender's flow id); omitted, a private hub is
    created — reachable via {!trace}. *)

val stop : t -> unit

val trace : t -> Sim_engine.Trace.t
(** The hub this tracer emits into. *)

val samples : t -> sample list
(** In chronological order. *)

val cwnd_series : t -> Sim_engine.Timeseries.t
(** The cwnd samples as a time series (for aggregation helpers). *)

val throughput_between : t -> from_:float -> until:float -> float
(** Goodput in bits/s computed from the delivered-bytes samples nearest the
    window edges; [nan] when the window has fewer than two samples. *)

val to_csv : t -> string
(** Header + one line per sample. *)

val state_occupancy : t -> (string * float) list
(** Fraction of samples spent in each CCA state (e.g. how long BBR spent in
    ProbeBW vs ProbeRTT), sorted by descending share. *)
