(** Structured simulation telemetry: a low-overhead event stream.

    Components (the sender, the bottleneck queue, congestion-state
    samplers) emit typed {!event}s into a {!t} hub, each stamped with the
    simulated time and a flow id. A hub retains the most recent events in a
    bounded ring buffer (for tests and post-mortems) and fans every event
    out to any number of subscribed sinks (in-memory consumers, or the
    {!jsonl_sink} file writer used by [repro run --trace]).

    Overhead contract: instrumented components hold a [t option] and guard
    every emission site with a [match] on it, so a run with no trace
    attached pays one branch per would-be event — no allocation, no
    formatting. Attaching a hub never changes simulation results: sinks
    only observe; all randomness and scheduling stay with the simulation
    proper. *)

type event =
  | Send of { seq : int; size : int; retransmit : bool }
      (** A segment handed to the network. *)
  | Ack of {
      seq : int;
      rtt_sample : float;  (** Seconds; as measured by this ACK. *)
      delivered_bytes : float;  (** Sender cumulative after this ACK. *)
      inflight_bytes : int;
    }
  | Seg_lost of { seq : int; via_timeout : bool }
      (** A transmission declared lost (RACK reap or RTO sweep); one event
          per segment counted in [Sender.lost_segments]. *)
  | Drop of { seq : int; size : int; early : bool; queue_bytes : int }
      (** A packet dropped at the bottleneck ([early] = RED's choice);
          [queue_bytes] is the occupancy that rejected it. The record's
          flow field names the owning flow. *)
  | Rto_fire of { interval : float; backoff : int; lost_segments : int }
      (** The retransmission timer expired after [interval] seconds at
          exponential-backoff stage [backoff] (0 = first firing), declaring
          [lost_segments] segments lost. *)
  | Recovery_enter of { via_timeout : bool; lost_bytes : int }
  | Recovery_exit
  | Cc_state_change of { from_state : string; to_state : string }
      (** The CCA's [state ()] string changed (e.g. BBR Startup→Drain). *)
  | Cc_sample of {
      cwnd_bytes : float;
      inflight_bytes : int;
      pacing_rate : float option;
      delivered_bytes : float;
      cc_state : string;
    }
      (** A periodic congestion-state sample, emitted by a traced
          [Tcpflow.Experiment]'s sampling tick. *)
  | Queue_sample of { queue_bytes : int; queue_packets : int }
      (** Bottleneck occupancy observed at a packet arrival. *)
  | Flow_start of { size_limit_bytes : int }
      (** The flow was activated (its sender scheduled its first send).
          [size_limit_bytes] is -1 for long-lived backlogged flows. *)
  | Flow_complete of { fct : float; size_bytes : int }
      (** A size-limited flow acknowledged its last byte; [fct] is the
          flow-completion time in seconds since activation. *)

type record = { time : float; flow : int; event : event }
(** One timestamped occurrence. [flow] is {!link_scope} for link-level
    events ({!Queue_sample}); {!Drop} carries the owning flow. *)

val link_scope : int
(** The pseudo flow id (-1) stamped on events that belong to the shared
    link rather than any one flow. *)

type t
(** An event hub: bounded ring of recent records + subscriber list. *)

val create : ?ring_capacity:int -> unit -> t
(** [ring_capacity] (default 65536, must be positive) bounds the records
    retained in memory; older records are overwritten, never blocking the
    simulation. Sinks see every event regardless of ring size. *)

val emit : t -> time:float -> flow:int -> event -> unit

val subscribe : t -> (record -> unit) -> unit
(** Sinks run synchronously at emission, in subscription order. *)

val subscribe_sink :
  t -> on_record:(record -> unit) -> on_close:(unit -> unit) -> unit
(** Like {!subscribe}, but with an end-of-stream callback: [on_close] runs
    when the hub is {!close}d, letting stateful sinks (file writers, the
    invariant auditor) flush buffers or run whole-stream checks. *)

val close : t -> unit
(** Declare the stream complete: every sink's [on_close] runs once, in
    subscription order. Idempotent — only the first call fires the
    callbacks. Closing does not disable {!emit}; it is a signal to sinks,
    not a lifecycle gate on the hub. *)

val closed : t -> bool

val records : t -> record list
(** The retained (up to [ring_capacity] most recent) records, in emission
    order. *)

val emitted : t -> int
(** Total records ever emitted into this hub. *)

val overwritten : t -> int
(** Records evicted from the ring ([emitted - overwritten] are retained,
    once the ring has wrapped). *)

(** {1 Serialization}

    The JSONL writer is deterministic byte-for-byte: fixed field order,
    fixed float format — a seeded run traces identically across
    invocations and worker counts. *)

val event_name : event -> string

val to_jsonl : record -> string
(** One JSON object, no trailing newline. *)

val jsonl_sink : out_channel -> record -> unit
(** Writes {!to_jsonl} and a newline. *)

(** {1 Rollups} *)

module Metrics : sig
  (** A streaming rollup of an event stream: counters, rates, CC-state
      occupancy and queue-delay quantiles. Subscribe {!observe} to a hub
      (or fold {!of_records} over retained records) and read {!summary}. *)

  type t

  val create : ?rate_bps:float -> unit -> t
  (** [rate_bps], when given, converts {!Queue_sample} occupancies into
      queue delays (seconds) for the quantile rollup. *)

  val observe : t -> record -> unit

  type summary = {
    events : int;
    sends : int;
    retransmits : int;
    acks : int;
    seg_losts : int;
    drops : int;
    rto_fires : int;
    recovery_entries : int;
    retransmit_rate : float;  (** retransmits / sends; [nan] if no sends. *)
    drop_rate : float;  (** drops / sends; [nan] if no sends. *)
    state_occupancy : (string * float) list;
        (** Fraction of {!Cc_sample} events per CCA state, sorted by
            descending share (ties by name): how long a flow spent in
            each state, when every sample is of one flow. *)
    queue_delay_quantiles : (float * float) list;
        (** [(percentile, seconds)] for p50/p90/p99 over per-arrival queue
            delays; empty without [rate_bps] or queue samples. *)
    flow_starts : int;  (** {!Flow_start} events seen. *)
    flow_completes : int;  (** {!Flow_complete} events seen. *)
    fct_quantiles : (float * float) list;
        (** [(percentile, seconds)] for p50/p95/p99 over flow-completion
            times; empty when no flow completed. *)
  }

  val summary : t -> summary

  val of_records : ?rate_bps:float -> record list -> summary

  val summary_line : summary -> string
  (** A one-line, fixed-order [key=value] rendering (the per-entry line
      [repro run --trace] prints and the [.metrics] sidecar format). *)
end
