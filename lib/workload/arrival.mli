(** Open-loop arrival processes: the clock that decides when new flows are
    born. Pure data, like {!Dist.t}, so an arrival process can live inside a
    marshalled experiment config. *)

type t =
  | Poisson of { rate_per_s : float }
      (** memoryless arrivals; inter-arrival gaps are exponential *)
  | Pareto_gaps of { mean_gap_s : float; alpha : float }
      (** heavy-tailed (bursty) inter-arrival gaps with tail index
          [alpha > 1], scaled so the mean gap is [mean_gap_s] *)

val validate : t -> unit
(** Raises [Invalid_argument] on non-positive rates/means or [alpha <= 1]. *)

val mean_gap_s : t -> float
(** Analytic mean inter-arrival gap in seconds. *)

val next_gap : t -> Sim_engine.Rng.t -> float
(** Draw the next inter-arrival gap (one uniform consumed per call). *)

val poisson_of_load : load:float -> rate_bps:float -> mean_size_bytes:float -> t
(** [poisson_of_load ~load ~rate_bps ~mean_size_bytes] is the Poisson process
    whose offered byte rate is [load] times the link capacity:
    rate = load * rate_bps / (8 * mean_size). *)
