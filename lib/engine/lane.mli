(** A calendar lane: a ring-buffered FIFO of timestamped deliveries.

    Network elements whose deliveries happen in send order (constant
    per-packet delay) append here instead of the heap; {!Sim} merges only
    each lane's head with the heap, shrinking the heap to O(lanes +
    timers). Entries carry the global (time, seq) pair, so the merged
    schedule is identical to a single heap's. Payloads are ints (packet
    handles), so a push stores immediates: no allocation and no write
    barrier.

    Create lanes through {!Sim.lane}, which registers them with the
    simulator; push through {!Sim.schedule_packet}, which assigns the seq
    and falls back to the heap on FIFO violations. *)

type t

type heads = {
  mutable head_time : float array;
      (** [head_time.(id)]: time of lane [id]'s head, [infinity] when empty. *)
  mutable head_seq : int array;
      (** [head_seq.(id)]: seq of lane [id]'s head, [max_int] when empty. *)
}
(** The simulator-facing face of every lane, as flat arrays indexed by
    lane id: the merge loop scans these, and [push]/[fire_head] keep a
    lane's cells current. The owner may replace the arrays with larger
    copies. *)

val create : heads:heads -> id:int -> deliver:(int -> unit) -> t
(** A lane that reports its head in cell [id] of [heads], which must
    exist; [create] marks it empty. *)

val length : t -> int

val can_accept : t -> time:float -> bool
(** Whether [time] respects the lane's FIFO invariant (it is at or after
    the last queued entry). *)

val push : t -> time:float -> seq:int -> int -> unit
(** Append a delivery. Raises [Invalid_argument] if [time] violates FIFO
    order or is NaN. *)

val fire_head : t -> unit
(** Pop the head entry and hand its payload to the deliver function. The
    lane must not be empty. *)

val apply : t -> int -> unit
(** Call the lane's deliver function directly (heap-fallback path). *)
