(** Discrete-event simulation driver.

    A [t] owns the virtual clock, the timer heap and the calendar lanes.
    Components schedule callbacks; {!run} executes them in (time, seq)
    order — earliest time first, insertion order on ties — advancing the
    clock. Time never flows backwards: scheduling in the past raises
    [Invalid_argument].

    Two scheduling substrates share one global ordering:
    - the {e heap}, for timers and anything cancellable ({!schedule} /
      {!schedule_at}, and resettable {!Timer}s);
    - {e lanes} ({!lane} / {!schedule_packet}), ring-buffered FIFOs for
      elements that deliver in send order (pipes, links, fixed reverse
      paths). A lane carries int payloads (packet handles) to a callback
      registered once at lane creation, so the steady-state packet path
      allocates nothing and stores no heap pointer.

    Event times must be finite; an event scheduled at [infinity] never
    fires. *)

type t

type handle [@@immediate]
(** Identifies a heap-scheduled event so it can be cancelled. Handles are
    immediate ints and become inert once the event fires or is
    cancelled. *)

type lane
(** A FIFO delivery lane carrying int payloads. *)

val create : ?seed:int -> unit -> t
(** [create ?seed ()] makes a simulator whose root RNG is seeded with [seed]
    (default 42). *)

val now : t -> float
(** Current virtual time in seconds. *)

val rng : t -> Rng.t
(** Root RNG; components should {!Rng.split} it rather than share it. *)

val schedule : t -> delay:float -> (unit -> unit) -> handle
(** [schedule t ~delay f] fires [f] at [now t +. delay]. [delay] must be
    non-negative (NaN rejected). *)

val schedule_at : t -> time:float -> (unit -> unit) -> handle
(** Absolute-time variant of {!schedule}. [time] must be [>= now t]. *)

val cancel : t -> handle -> unit
(** Cancelling an already-fired or already-cancelled event is a no-op. *)

(** Resettable one-shot timers, for events that are re-armed far more often
    than they fire, such as a retransmission timeout pushed back on every
    ACK. *)
module Timer : sig
  type sim := t
  type t

  val create : sim -> (unit -> unit) -> t
  (** [create sim f] makes a timer that is not set and runs [f] when it
      expires. Make one per purpose and re-arm it with {!set}. *)

  val set : t -> delay:float -> unit
  (** [set tm ~delay] means exactly: cancel the pending expiry, if any,
      then schedule [f] at [now +. delay] with {!schedule}. The expiry is
      ordered among same-time events by the seq this call draws. [delay]
      must be non-negative (NaN rejected). The timer is no longer set when
      [f] runs, so [f] may set it again.

      A set that does not move the deadline earlier costs no heap
      operation: the timer keeps its one heap entry, which re-inserts
      itself at the recorded (deadline, seq) when it comes due, without
      running [f]. [set] is inlined, so [delay] never boxes. *)

  val stop : t -> unit
  (** Cancel the pending expiry. No-op if the timer is not set. *)

  val is_set : t -> bool
  (** Whether an expiry is pending. *)
end

val lane : t -> deliver:(int -> unit) -> lane
(** Register a delivery lane. [deliver] is the pre-registered callback
    every payload on this lane is handed to. Registration is O(1) amortized
    and should happen once per network element and delay, not per packet
    or per flow: every event costs O({!lane_count}). *)

val schedule_packet : t -> lane -> delay:float -> int -> unit
(** [schedule_packet t lane ~delay p] delivers [p] to the lane's callback
    at [now t +. delay], allocation-free: it is inlined, so [delay] never
    boxes. Deliveries on a lane must be FIFO: if [delay] would put this
    delivery before an already-queued one, the event transparently falls
    back to the heap (allocating a closure) — global (time, seq) ordering
    is preserved either way. *)

val run : ?until:float -> t -> unit
(** Execute events in order until the queue is empty, or until the first
    event strictly after [until] (the clock is then left at [until]). *)

val pending_events : t -> int
(** Live scheduled events: heap timers plus queued lane deliveries. *)

val lane_count : t -> int
(** Lanes registered so far. Lanes are never unregistered and the merge
    loop reads every lane head per event, so components key lanes by
    delay, not by flow, to keep this small. *)
