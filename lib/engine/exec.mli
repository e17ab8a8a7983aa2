(** Parallel trial executor and result store.

    Simulation runs are pure functions of their config (each run owns its
    [Sim.t] and derives all randomness from the config's seed), so batches
    of independent runs parallelise across domains without changing any
    result, and results can be stored, on disk or in memory, under a
    digest of the config. *)

val domain_count : unit -> int
(** [Domain.recommended_domain_count ()]: the default worker count for
    CPU-bound batches. *)

val map : ?jobs:int -> ('a -> 'b) -> 'a array -> 'b array
(** [map ~jobs f xs] evaluates [f] on every element using up to [jobs]
    domains (default 1, i.e. sequential) and returns the results in input
    order. [f] must be safe to run concurrently with itself — in this
    codebase, any closure over a pure simulation config qualifies. If a job
    raises, the exception is re-raised after all workers finish. *)

val map_list : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** {!map} over lists. *)

type counters = {
  simulations : int;
      (** Simulations run since process start: {!note_simulation} calls.
          {!map} counts nothing itself, because a job may only orchestrate
          other jobs. *)
  cache_hits : int;
      (** Keys {!Cache.find_many} answered, from disk or from memory,
          repeats included. *)
  cache_misses : int;  (** Keys {!Cache.find_many} did not answer. *)
}

val counters : unit -> counters
(** Process-wide monotonic counters; take a snapshot before and after a
    batch and subtract to report per-batch work (as [bin/repro] does). *)

val note_simulation : unit -> unit
(** Count one simulation (atomic; callable from worker domains). Called
    where a simulation runs: once per miss that [Runs] evaluates. Every
    catalog driver simulates through [Runs], so no other caller counts. *)

val mkdir_p : string -> unit
(** Create a directory and any missing parents; a no-op when it already
    exists as a directory. Raises [Sys_error] when the path, or one of its
    parents, exists and is not a directory. Losing a creation race to a
    concurrent caller is tolerated; any other failure raises
    [Sys_error]. *)

(** Content-addressed result store: values are marshalled under a
    caller-chosen key string (for experiments, the config's digest), and
    kept on disk ({!create}) or in process memory ({!in_memory}).

    On disk, each value is one record appended to a pack, an append-only
    [*.pack] file in the directory. A handle writes to one pack of its
    own, created on its first {!store}, and indexes the records of every
    pack in the directory once, on its first find. A record counts only
    when it is complete and its payload matches its checksum: a torn tail
    or a damaged record is a counted miss, never an error. Files without
    the [.pack] suffix, such as the per-result files of the earlier
    layout, are ignored.

    - Within one handle, the last store of a key wins.
    - Across handles, any complete record of a key may answer; values are
      content-addressed, so they are equal.
    - Records another handle appends after this one built its index are
      invisible to it: the miss re-simulates.

    One handle may be used from several domains at once; a mutex guards
    its records. Reads are typed by the caller (a find is as unsafe as
    [Marshal]): only read a key with the type it was stored at. *)
module Cache : sig
  type t

  val create : string -> t
  (** A handle on the given directory, created if needed (including
      parents). Creates no pack and reads nothing yet. Raises [Sys_error]
      when the path names something other than a directory. *)

  val in_memory : unit -> t
  (** A handle that keeps its records in process memory, for as long as
      the handle lives. Finds and stores behave as on disk: the last store
      of a key wins, hits and misses are counted per key, and each find
      unmarshals a fresh copy of the stored value, so mutating a found
      value never changes what the next find returns. *)

  val find_many : t -> keys:string array -> 'a option array
  (** The value stored under each key, in order, or [None] (counted as a
      miss for that key alone) when absent or unreadable; hits and misses
      are counted per key. Every key is resolved under the lock. On disk,
      the reads then go pack by pack in offset order: one open per
      pack, one [read] per run of exactly adjacent records (the runtime
      reads at most 64 kB per call), and each record is checked on its
      own (magic, lengths, key, checksum) before it is unmarshalled. A
      short read or a damaged record misses for its own key only.
      Memory is bounded by the bytes of the records asked for, and no
      descriptor outlives the call. *)

  val find : t -> key:string -> 'a option
  (** [find_many] of one key. *)

  val store : t -> key:string -> 'a -> unit
  (** Store [value] under [key]. On disk, append it to this handle's pack:
      one open for append, one write, one close. Later finds through this
      handle read it. The value must contain no closures. *)
end
