(** Time-weighted aggregation of a stream of [(time, value)] samples that
    is not stored. *)

(** Running statistics of a sample stream over a window [\[from_, until\]].
    The samples define a right-continuous step function; the value before
    the first sample is taken as the first sample's value. *)
module Window : sig
  type t

  val create : from_:float -> until:float -> t

  val add : t -> time:float -> float -> unit
  (** Folds in one sample. Samples must come with non-decreasing
      timestamps. Allocates nothing. *)

  val mean : t -> float
  (** Mean of the step function over [\[from_, until\]]; [nan] when no
      sample was added or the window is empty. *)

  val min : t -> float
  (** Minimum sample at or after [from_], past [until] included; [nan] if
      there is none. *)

  val max : t -> float
end
