module Rng = Sim_engine.Rng

type t =
  | Poisson of { rate_per_s : float }
  | Pareto_gaps of { mean_gap_s : float; alpha : float }

let validate = function
  | Poisson { rate_per_s } ->
    if rate_per_s <= 0.0 then invalid_arg "Arrival.Poisson: rate must be > 0"
  | Pareto_gaps { mean_gap_s; alpha } ->
    if mean_gap_s <= 0.0 || alpha <= 1.0 then
      invalid_arg "Arrival.Pareto_gaps: need mean > 0 and alpha > 1"

let mean_gap_s = function
  | Poisson { rate_per_s } -> 1.0 /. rate_per_s
  | Pareto_gaps { mean_gap_s; _ } -> mean_gap_s

let next_gap t rng =
  match t with
  | Poisson { rate_per_s } -> Rng.exponential rng ~mean:(1.0 /. rate_per_s)
  | Pareto_gaps { mean_gap_s; alpha } ->
    (* Scale chosen so the analytic mean is [mean_gap_s]:
       E[gap] = xm * alpha / (alpha - 1). *)
    let xm = mean_gap_s *. (alpha -. 1.0) /. alpha in
    let u = 1.0 -. Rng.float rng 1.0 in
    xm *. (u ** (-1.0 /. alpha))

let poisson_of_load ~load ~rate_bps ~mean_size_bytes =
  if load <= 0.0 then invalid_arg "Arrival.poisson_of_load: load must be > 0";
  if rate_bps <= 0.0 || mean_size_bytes <= 0.0 then
    invalid_arg "Arrival.poisson_of_load: rate and mean size must be > 0";
  Poisson { rate_per_s = load *. rate_bps /. (8.0 *. mean_size_bytes) }
