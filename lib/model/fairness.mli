(** Flow-completion-time metrics.

    Over the completion records of an open-loop short-flow population
    ({!Tcpflow.Experiment.completion}): FCT percentiles and the
    size-normalised slowdown the datacenter-transport literature reports.
    The [workload] experiment reads them. *)

val ideal_fct : rtt_s:float -> rate_bps:float -> size_bytes:int -> float
(** The loss- and queue-free lower bound on a transfer's completion time:
    one base RTT plus the serialization time of [size_bytes] at the link
    rate. Raises [Invalid_argument] on non-positive rate or size. *)

val slowdown : ideal_s:float -> fct_s:float -> float
(** [fct_s / ideal_s], the standard FCT normalisation; >= 1 up to
    measurement noise. Raises [Invalid_argument] unless both are finite
    and positive. *)

val fct_percentiles : ?ps:float list -> float list -> (float * float) list
(** [(p, percentile p)] pairs over a list of FCTs (default p50/p95/p99,
    via {!Sim_engine.Stats.percentile}); all [nan] when the list is
    empty. *)

val default_size_bounds : int array
(** Bin boundaries (bytes) separating short / medium / long transfers:
    [[| 100_000; 1_000_000 |]]. *)

val bin_of_size : bounds:int array -> int -> int
(** Index of the size bin for a transfer: bin [i] holds sizes in
    [[bounds.(i-1), bounds.(i))], with the open-ended last bin above the
    final bound. [bounds] must be sorted ascending. *)

val binned_mean_slowdown :
  ?bounds:int array ->
  ideal:(int -> float) ->
  (int * float) list ->
  float array
(** Mean {!slowdown} per size bin over [(size_bytes, fct_s)] completion
    pairs, where [ideal size_bytes] supplies the per-size ideal FCT;
    [nan] for bins with no completions. *)
