(** Typed flow schedules: the output of an arrival process x size
    distribution, one transfer per arrival, and the shared representation
    consumed by the lifecycle layer ([Tcpflow.Churn]), the fuzzer and the
    workload experiments.

    Generation is deterministic: the same parameters and the same RNG state
    produce a byte-identical schedule ({!to_string}), independently of
    [--jobs] or host. *)

type item = { arrival_s : float; size_bytes : int }
type t = item array

val generate :
  arrival:Arrival.t ->
  sizes:Dist.t ->
  horizon_s:float ->
  rng:Sim_engine.Rng.t ->
  unit ->
  t
(** Seed-split mode (the default for experiments): two independent
    sub-streams are split off [rng], one for arrival gaps and one for sizes,
    so changing the size distribution cannot move an arrival instant and vice
    versa. Transfers come in arrival order; those starting at or after
    [horizon_s] are dropped. *)

val generate_seeded :
  arrival:Arrival.t ->
  sizes:Dist.t ->
  horizon_s:float ->
  seed:int ->
  unit ->
  t
(** [generate] with a fresh generator from [seed]. *)

val count : t -> int
val total_bytes : t -> int

val offered_load : t -> rate_bps:float -> horizon_s:float -> float
(** Realised offered load: scheduled bits / horizon / capacity. *)

val to_string : t -> string
(** Canonical text form ("workload schedule v1" header, one
    ["%.9f size"] line per transfer) used by byte-identity tests. *)
