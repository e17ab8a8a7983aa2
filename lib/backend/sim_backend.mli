(** The unified simulation-backend API.

    The repo has three ways to answer "what happens when these flows share
    this bottleneck": the packet-level simulator ({!Tcpflow.Experiment}),
    the fluid round-stepped model ({!Fluidsim.Fluid_sim}) and the
    control-theoretic ODE model ({!Fluidsim.Ode_model}). This module fronts
    all three behind one backend-neutral {!spec} so that experiment
    drivers, differential tests, the fuzzer and [repro --backend] select a
    backend by name instead of hard-coding one engine's config type.

    The spec speaks the same vocabulary as {!Tcpflow.Experiment.config}:
    registry CCA names ({!Cca.Registry}), base RTTs, a drop-tail bottleneck
    described by rate and buffer. Backends that model only a subset of
    CCAs reject the others with a typed {!error} rather than a string.

    Each backend exposes a {!S.digest} of a spec that includes a
    backend-version token, so {!Sim_engine.Exec.Cache} entries are keyed by
    backend identity and invalidated when a backend's internals change
    behavior. *)

type flow = { cca : string; rtt : Sim_engine.Units.seconds }

type spec = {
  rate_bps : Sim_engine.Units.rate_bps;
  buffer_bytes : Sim_engine.Units.byte_count;
  flows : flow list;
  duration : Sim_engine.Units.seconds;
  warmup : Sim_engine.Units.seconds;
  seed : int;  (** Ignored by the deterministic ODE backend. *)
}

val spec :
  ?warmup:Sim_engine.Units.seconds ->
  ?seed:int ->
  rate_bps:Sim_engine.Units.rate_bps ->
  buffer_bytes:Sim_engine.Units.byte_count ->
  duration:Sim_engine.Units.seconds ->
  flow list ->
  spec
(** Labelled builder. Defaults: no warm-up, seed 1. *)

type outcome = {
  per_flow_bps : float array;  (** Goodput over the window, flow order. *)
  per_flow_cca : string array;
  mean_queue_bytes : float;
  mean_queuing_delay : float;
  loss_events : int;
      (** Backend-relative: packet drops, fluid loss rounds, or the
          rounded expected back-off count of the ODE model. *)
  utilization : float;  (** Σ goodput / capacity over the window. *)
}

type error =
  | Unknown_backend of { name : string; known : string list }
  | Unsupported_cca of {
      backend : string;
      cca : string;
      supported : string list;
    }
  | Invalid_spec of string

val pp_error : Format.formatter -> error -> unit

(** Interface every backend implements. *)
module type S = sig
  val name : string

  val supports : string -> bool
  (** Does this backend model the named CCA? *)

  val validate : spec -> (unit, error) result
  (** Cheap static check without running anything: CCA support, a
      non-empty flow list, finite positive rate, buffer, duration and
      RTTs, and a finite warm-up in [\[0, duration)]. NaN fails every
      bound. *)

  val digest : spec -> string
  (** Content address of [run]'s outcome: a hex digest over the full spec
      and a backend-version token. Two equal digests — same backend, same
      spec — denote the same outcome. The analytic backends take the MD5
      of a binary encoding: the token, rate, buffer, duration and warm-up
      as IEEE-754 bits, the seed (zeroed by the ODE backend), then per
      flow its CCA name behind an 8-byte length and its RTT's bits. It
      allocates no formatted text, so a warm cache lookup pays little
      for its key. *)

  val run : spec -> (outcome, error) result

  val run_batch : spec array -> (outcome, error) result array
  (** [Array.map run] in every backend. No library code calls it:
      batched evaluation measured no faster than [run] (DESIGN.md §15).
      It stays in the signature only because the end-to-end benchmark's
      delegating backend ([e2ebench/probe.ml]) defines and calls it, and
      that benchmark stays unchanged so its runs compare across
      commits. *)
end

type t = (module S)

val packet : t
(** The packet-level simulator. Supports every {!Cca.Registry} name. *)

val fluid : t
(** {!Fluidsim.Fluid_sim}: one explicit round step per dt (2 ms),
    synchronized loss. Supports cubic/bbr/bbr2. *)

val ode : t
(** {!Fluidsim.Ode_model} with the adaptive integrator. Deterministic;
    supports cubic/bbr/bbr2. *)

val all : t list
(** [[packet; fluid; ode]]. *)

val names : unit -> string list

val find : string -> (t, error) result

val find_exn : string -> t
(** Raises [Invalid_argument] listing the known backends. *)

val name : t -> string
val supports : t -> string -> bool
val run : t -> spec -> (outcome, error) result
val digest : t -> spec -> string
val validate : t -> spec -> (unit, error) result

val run_exn : t -> spec -> outcome
(** Raises [Invalid_argument] with the formatted {!error}. *)

val mean_bps_of_cca : outcome -> string -> float
(** Mean per-flow goodput over flows running the named CCA; [nan] if
    none. *)

val aggregate_bps_of_cca : outcome -> string -> float
