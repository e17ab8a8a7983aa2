module Rng = Sim_engine.Rng

type t =
  | Fixed of int
  | Uniform of { lo_bytes : int; hi_bytes : int }
  | Lognormal of { mu : float; sigma : float }
  | Pareto of { xm_bytes : float; alpha : float }
  | Web_objects of {
      mu : float;
      sigma : float;
      tail_frac : float;
      xm_bytes : float;
      alpha : float;
    }

let validate = function
  | Fixed bytes ->
    if bytes <= 0 then invalid_arg "Dist.Fixed: bytes must be positive"
  | Uniform { lo_bytes; hi_bytes } ->
    if lo_bytes <= 0 || hi_bytes <= lo_bytes then
      invalid_arg "Dist.Uniform: need 0 < lo < hi"
  | Lognormal { sigma; _ } ->
    if sigma < 0.0 then invalid_arg "Dist.Lognormal: sigma must be >= 0"
  | Pareto { xm_bytes; alpha } ->
    if xm_bytes <= 0.0 || alpha <= 1.0 then
      invalid_arg "Dist.Pareto: need xm > 0 and alpha > 1"
  | Web_objects { sigma; tail_frac; xm_bytes; alpha; _ } ->
    if sigma < 0.0 then invalid_arg "Dist.Web_objects: sigma must be >= 0";
    if tail_frac < 0.0 || tail_frac > 1.0 then
      invalid_arg "Dist.Web_objects: tail_frac must be in [0, 1]";
    if xm_bytes <= 0.0 || alpha <= 1.0 then
      invalid_arg "Dist.Web_objects: need xm > 0 and alpha > 1"

let mean_bytes = function
  | Fixed bytes -> float_of_int bytes
  | Uniform { lo_bytes; hi_bytes } ->
    (* [sample] draws uniformly over the integers [lo, hi). *)
    (float_of_int lo_bytes +. float_of_int (hi_bytes - 1)) /. 2.0
  | Lognormal { mu; sigma } -> exp (mu +. (sigma *. sigma /. 2.0))
  | Pareto { xm_bytes; alpha } -> alpha *. xm_bytes /. (alpha -. 1.0)
  | Web_objects { mu; sigma; tail_frac; xm_bytes; alpha } ->
    ((1.0 -. tail_frac) *. exp (mu +. (sigma *. sigma /. 2.0)))
    +. (tail_frac *. (alpha *. xm_bytes /. (alpha -. 1.0)))

let clamp_bytes x =
  if x < 1.0 then 1 else if x > 1e12 then 1_000_000_000_000 else int_of_float x

(* u in (0, 1] so the Pareto inverse-CDF never divides by zero. *)
let unit_open_low rng = 1.0 -. Rng.float rng 1.0

let pareto_draw rng ~xm ~alpha =
  xm *. ((unit_open_low rng) ** (-1.0 /. alpha))

let sample t rng =
  match t with
  | Fixed bytes -> bytes
  | Uniform { lo_bytes; hi_bytes } -> lo_bytes + Rng.int rng (hi_bytes - lo_bytes)
  | Lognormal { mu; sigma } ->
    clamp_bytes (exp (mu +. (sigma *. Rng.gaussian rng)))
  | Pareto { xm_bytes; alpha } ->
    clamp_bytes (pareto_draw rng ~xm:xm_bytes ~alpha)
  | Web_objects { mu; sigma; tail_frac; xm_bytes; alpha } ->
    (* Branch draw first, then exactly one body draw: a fixed number of
       uniforms per branch keeps replay stable under parameter tweaks that
       do not change which branch is taken. *)
    if Rng.float rng 1.0 < tail_frac then
      clamp_bytes (pareto_draw rng ~xm:xm_bytes ~alpha)
    else clamp_bytes (exp (mu +. (sigma *. Rng.gaussian rng)))

(* A web-object mix in the spirit of the classic HTTP-response fits: a
   lognormal body with median ~30 kB and a 5% Pareto tail (alpha 1.3)
   starting at 300 kB. Mean is ~146 kB; the tail carries ~45% of bytes. *)
let web_objects =
  Web_objects
    {
      mu = log 30_000.0;
      sigma = 1.0;
      tail_frac = 0.05;
      xm_bytes = 300_000.0;
      alpha = 1.3;
    }
