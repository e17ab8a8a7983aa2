(** Planning and execution of batched simulation runs.

    Drivers no longer call {!Tcpflow.Experiment.run} inline: they build
    {!mix_spec}s (or raw configs) for every grid point up front, submit the
    whole batch through {!eval} — which consults the ctx's on-disk cache
    and fans the misses out over [ctx.jobs] domains — and reduce the
    results afterwards. *)

type summary = {
  per_flow_cubic_bps : float;  (** Mean per-flow CUBIC goodput; nan if none. *)
  per_flow_other_bps : float;  (** Same for the non-CUBIC CCA. *)
  aggregate_other_bps : float;
  queuing_delay : float;  (** Seconds, averaged over trials. *)
  utilization : float;
}

val eval :
  Common.ctx ->
  Tcpflow.Experiment.config list ->
  Tcpflow.Experiment.result list
(** Run every config, in order. Duplicate configs within one call are
    simulated once. With [ctx.cache] set, cached results are returned
    without simulating and fresh results are persisted. Misses run on
    [ctx.jobs] worker domains, one job per distinct config; results are
    independent of [jobs] because each run derives all randomness from its
    config's seed.

    With [ctx.trace_dir] set, every distinct config is simulated with a
    trace hub attached and writes [<trace_dir>/<digest>.jsonl] (the full
    event stream) plus [<digest>.metrics] (a one-line
    {!Sim_engine.Trace.Metrics.summary_line} rollup). Traced batches bypass
    the result cache entirely — a hit would skip the simulation and leave
    no trace — and the files are byte-identical across invocations and
    [jobs] settings for a given config. *)

type memo
(** An in-memory outcome store keyed by {!Sim_backend.digest}, layered in
    front of {!run_specs}'s disk cache for adaptive drivers whose payoff
    queries revisit the same profile many times per process (the evolve
    generation loop: late generations are quantized onto a few profiles).
    Bounded: at most [cap] entries, evicting least-recently-used (each
    eviction bumps {!Sim_engine.Exec.counters}' [memo_evictions]);
    results never depend on the cap, only the hit rate does. One memo
    per driver unit of work — memos are not domain-safe, so keep each
    inside the worker that owns it. *)

val memo : ?cap:int -> unit -> memo
(** [cap] defaults to 4096 outcomes. Raises [Invalid_argument] when
    [cap < 1]. *)

val run_specs :
  ?memo:memo ->
  Common.ctx ->
  Sim_backend.t ->
  Sim_backend.spec list ->
  Sim_backend.outcome list
(** {!eval}'s backend-neutral sibling: run every spec on the given backend,
    in order, with the same cache discipline — outcomes are keyed by
    {!Sim_backend.digest} (which includes the backend's version token), so
    the packet, fluid and ODE backends never share entries. Each distinct
    miss is one worker-pool job through {!Sim_backend.run}, so outcomes
    are byte-identical across [ctx.jobs] settings. With [memo], specs whose
    digest the memo holds are answered without touching the disk cache or
    the worker pool, and every outcome read from disk or computed is
    recorded in it. [ctx.trace_dir] does not apply: analytic backends emit
    no event stream. Raises [Invalid_argument] when the backend rejects a
    spec (unsupported CCA, malformed spec). *)

type mix_spec
(** One homogeneous-RTT CUBIC-vs-other mix — one grid point of a figure,
    before seed expansion. *)

val spec :
  ?duration:Sim_engine.Units.seconds ->
  ?warmup:Sim_engine.Units.seconds ->
  ?aqm:Tcpflow.Experiment.aqm ->
  ?base_seed:int ->
  mbps:float ->
  rtt_ms:float ->
  buffer_bdp:float ->
  n_cubic:int ->
  other:string ->
  n_other:int ->
  unit ->
  mix_spec
(** Raises [Invalid_argument] when the spec has no flows. *)

val mix_many : Common.ctx -> mix_spec list -> summary list
(** The batched workhorse: expands every spec into [Common.trials
    ctx.mode] seeded configs, submits the whole batch to {!eval} at once
    (so a figure's entire grid shares one worker pool), and averages each
    spec's trials into its summary. *)

val mix :
  ?duration:Sim_engine.Units.seconds ->
  ?warmup:Sim_engine.Units.seconds ->
  ?aqm:Tcpflow.Experiment.aqm ->
  ctx:Common.ctx ->
  mbps:float ->
  rtt_ms:float ->
  buffer_bdp:float ->
  n_cubic:int ->
  other:string ->
  n_other:int ->
  ?base_seed:int ->
  unit ->
  summary
(** [mix_many] of a single spec — for adaptive callers (NE searches) whose
    next grid point depends on the previous result. *)

val config :
  ?duration:Sim_engine.Units.seconds ->
  ?warmup:Sim_engine.Units.seconds ->
  ?aqm:Tcpflow.Experiment.aqm ->
  mode:Common.mode ->
  mbps:float ->
  rtt_ms:float ->
  buffer_bdp:float ->
  flows:Tcpflow.Experiment.flow_config list ->
  seed:int ->
  unit ->
  Tcpflow.Experiment.config
(** The underlying config builder (exposed for bespoke experiments such as
    the multi-RTT runs). [duration]/[warmup] default to the mode's values. *)
