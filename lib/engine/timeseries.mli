(** Append-only time series of [(time, value)] samples with time-weighted
    aggregation, and {!Window}, the same aggregation over a stream of
    samples that it does not store. *)

type t

val create : unit -> t

val record : t -> time:float -> float -> unit
(** Samples must be recorded with non-decreasing timestamps. *)

(** Running statistics of a sample stream over a window [\[from_, until\]]:
    what {!time_weighted_mean}, {!min_value} and {!max_value} return for
    the same samples, without keeping them. *)
module Window : sig
  type t

  val create : from_:float -> until:float -> t

  val add : t -> time:float -> float -> unit
  (** Folds in one sample. Samples must come with non-decreasing
      timestamps. Allocates nothing. *)

  val mean : t -> float
  (** Time-weighted mean over the window, as {!time_weighted_mean}. *)

  val min : t -> float
  (** Minimum sample at or after [from_], past [until] included; [nan] if
      there is none. *)

  val max : t -> float
end

val time_weighted_mean : t -> from_:float -> until:float -> float
(** Mean of the step function defined by the samples over [\[from_, until\]].
    The value before the first sample is taken as the first sample's value.
    Returns [nan] when the series is empty or the window is empty. *)

val min_value : t -> ?from_:float -> unit -> float
(** Minimum sampled value at or after [from_] (default: whole series).
    [nan] if no samples qualify. *)

val max_value : t -> ?from_:float -> unit -> float
