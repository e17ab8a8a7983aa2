(** Flow-size distributions for open-loop workloads.

    Values are pure data (no closures) so a distribution can sit inside an
    [Experiment.config] and participate in its Marshal digest. Sampling takes
    an explicit {!Sim_engine.Rng.t}; every variant consumes a fixed number of
    draws per sample (Web_objects consumes one branch draw plus one body
    draw), so stream positions are reproducible. *)

type t =
  | Fixed of int  (** every transfer is exactly this many bytes *)
  | Uniform of { lo_bytes : int; hi_bytes : int }
      (** uniform over the integers [\[lo, hi)] *)
  | Lognormal of { mu : float; sigma : float }
      (** log-space parameters; mean is [exp (mu + sigma^2/2)] *)
  | Pareto of { xm_bytes : float; alpha : float }
      (** scale [xm] and tail index [alpha > 1] (finite mean) *)
  | Web_objects of {
      mu : float;
      sigma : float;
      tail_frac : float;
      xm_bytes : float;
      alpha : float;
    }
      (** lognormal body mixed with a Pareto tail taken with probability
          [tail_frac] — the classic web-object shape *)

val validate : t -> unit
(** Raises [Invalid_argument] on nonsensical parameters (non-positive sizes,
    [alpha <= 1], [tail_frac] outside [\[0,1\]]). *)

val mean_bytes : t -> float
(** Analytic mean of the distribution, used to convert offered load into an
    arrival rate. *)

val sample : t -> Sim_engine.Rng.t -> int
(** Draw one flow size in bytes (clamped to [\[1, 1e12\]]). *)

val web_objects : t
(** Preset mix: lognormal body (median ~30 kB) with a 5% Pareto tail
    (alpha 1.3) from 300 kB; mean ~146 kB. *)
