(** A calendar lane: a ring-buffered FIFO of timestamped deliveries.

    Network elements whose deliveries happen in send order (constant
    per-packet delay) append here instead of the heap; {!Sim} merges only
    each lane's head with the heap, shrinking the heap to O(lanes +
    timers). Entries carry the global (time, seq) pair, so the merged
    schedule is identical to a single heap's. A push/fire cycle allocates
    nothing: the payload is stored in the ring, not captured in a closure.

    Create lanes through {!Sim.lane}, which registers them with the
    simulator; push through {!Sim.schedule_packet}, which assigns the seq
    and falls back to the heap on FIFO violations. *)

type 'a t

type view = {
  head_time : float array;
      (** Singleton cell: time of the head entry, [infinity] when empty. *)
  mutable head_seq : int;  (** Seq of the head entry, [max_int] when empty. *)
  mutable queued : int;  (** Entries currently in the lane. *)
  mutable fire : unit -> unit;
      (** Pop the head entry and deliver its payload. *)
}
(** The simulator-facing face of a lane: what the merge loop needs, as
    mutable immediates kept current by [push]/[fire]. *)

val create : dummy:'a -> deliver:('a -> unit) -> 'a t
(** [dummy] fills the ring's never-used cells. A popped payload stays in its
    cell until a later push overwrites it, so a lane may keep one ring's
    worth of delivered payloads reachable. *)

val view : 'a t -> view

val length : 'a t -> int

val can_accept : 'a t -> time:float -> bool
(** Whether [time] respects the lane's FIFO invariant (it is at or after
    the last queued entry). *)

val push : 'a t -> time:float -> seq:int -> 'a -> unit
(** Append a delivery. Raises [Invalid_argument] if [time] violates FIFO
    order or is NaN. *)

val apply : 'a t -> 'a -> unit
(** Call the lane's deliver function directly (heap-fallback path). *)
