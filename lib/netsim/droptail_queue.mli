(** A byte-bounded FIFO bottleneck queue with per-flow occupancy accounting
    and a pluggable drop policy.

    The default policy is drop-tail — the paper's model setting: packets that
    arrive when fewer than their size in bytes remain are dropped. A RED
    (Random Early Detection) policy is provided for the §1/§6 discussion of
    AQMs: arrivals are dropped probabilistically once the EWMA queue length
    exceeds [min_threshold] (gentle variant, byte mode).

    Per-flow byte occupancy is tracked so experiments can measure the model
    quantities [b_c], [b_b], [b_cmin], and [b_cmax] directly. It is kept in
    an array indexed by flow id, so packets must carry non-negative flow
    ids. *)

type t

type verdict = Enqueued | Dropped

type policy =
  | Tail_drop
  | Red of {
      min_threshold : float;  (** Bytes; EWMA queue below this never drops. *)
      max_threshold : float;  (** Bytes; drop probability reaches [max_p]. *)
      max_p : float;  (** Drop probability at [max_threshold]. *)
      weight : float;  (** EWMA weight for the average queue (e.g. 0.002). *)
      rng : Sim_engine.Rng.t;
    }

val red_defaults : rng:Sim_engine.Rng.t -> capacity_bytes:int -> policy
(** Classic RED parameterization: min = B/4, max = 3B/4, max_p = 0.1,
    weight = 0.002. *)

val create : ?policy:policy -> capacity_bytes:int -> unit -> t

val capacity_bytes : t -> int

val enqueue : t -> Packet.t -> verdict

val dequeue : t -> Packet.t option

exception Empty

val dequeue_exn : t -> Packet.t
(** Like {!dequeue} but raises {!Empty} instead of allocating an option —
    for the link's transmit loop, which checks {!is_empty} first. *)

val occupancy_bytes : t -> int
(** Total bytes currently queued. *)

val occupancy_of_flow : t -> int -> int
(** Bytes currently queued belonging to the given flow id. *)

val occupancy_by_class : t -> class_of_flow:int array -> int array -> unit
(** [occupancy_by_class t ~class_of_flow sums] sets [sums.(c)] to the bytes
    queued over the flows of class [c], in one pass over the per-flow
    counts. Flow [id] is in class [class_of_flow.(id)]; a negative entry,
    or an id at or past the array's length, is in no class. Every entry
    must be below [Array.length sums]. *)

val length : t -> int
(** Number of queued packets. *)

val is_empty : t -> bool

val drops : t -> int
(** Cumulative count of dropped packets (tail and early drops). *)

val early_drops : t -> int
(** Drops decided by the RED policy (0 under [Tail_drop]). *)

val average_queue_bytes : t -> float
(** The RED EWMA average (equals instantaneous occupancy under
    [Tail_drop]). *)

val dropped_bytes : t -> int

val enqueued_packets : t -> int
(** Cumulative count of packets accepted into the queue since creation.
    Together with {!drops} this closes the bottleneck's conservation law:
    every arrival is either enqueued or dropped, so
    [arrivals = enqueued_packets + drops] — the relation the runtime
    invariant auditor ({!Sim_check.Audit}) cross-checks against the event
    stream. *)

val enqueued_bytes : t -> int
(** Cumulative bytes accepted into the queue since creation. *)

val set_drop_hook : t -> (early:bool -> Packet.t -> unit) -> unit
(** Invoked synchronously on every drop (after counters update); [early] is
    true for RED's probabilistic drops, false for tail drops. *)

val drop_hook : t -> early:bool -> Packet.t -> unit
(** The currently installed hook — lets instrumentation chain onto an
    existing hook instead of silently replacing it. *)
