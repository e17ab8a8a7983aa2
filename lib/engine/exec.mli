(** Parallel trial executor and on-disk result cache.

    Simulation runs are pure functions of their config (each run owns its
    [Sim.t] and derives all randomness from the config's seed), so batches
    of independent runs parallelise across domains without changing any
    result, and results can be cached on disk under a digest of the
    config. *)

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
  jobs_executed : int;  (** Jobs evaluated by {!map} since process start. *)
  cache_hits : int;  (** {!Cache.find} calls answered from disk. *)
  cache_misses : int;  (** {!Cache.find} calls that fell through. *)
  memo_evictions : int;
      (** Entries displaced from capped in-memory memo layers
          ({!note_memo_eviction} calls — see [Runs.run_specs]). *)
}

val counters : unit -> counters
(** Process-wide monotonic counters; take a snapshot before and after a
    batch and subtract to report per-batch work (as [bin/repro] does). *)

val note_memo_eviction : unit -> unit
(** Count one memo eviction (atomic; callable from worker domains). *)

val mkdir_p : string -> unit
(** Create a directory and any missing parents; a no-op when it already
    exists. Losing a creation race to a concurrent caller is tolerated;
    any other failure raises [Sys_error]. *)

(** Content-addressed result store: values are marshalled under a
    caller-chosen key string (for experiments, the config's digest).

    Each value is one record appended to a pack, an append-only [*.pack]
    file in the directory. A handle writes to one pack of its own, created
    on its first {!store}, and indexes the records of every pack in the
    directory once, on its first {!find}. A record counts only when it is
    complete and its payload matches its checksum: a torn tail or a
    damaged record is a counted miss, never an error. Files without the
    [.pack] suffix, such as the per-result files of the earlier layout,
    are ignored.

    - Within one handle, the last store of a key wins.
    - Across handles, any complete record of a key may answer; values are
      content-addressed, so they are equal.
    - Records another handle appends after this one built its index are
      invisible to it: the miss re-simulates.

    One handle may be used from several domains at once; a mutex guards
    its index and its pack. Reads are typed by the caller ([find] is as
    unsafe as [Marshal]): only read a key with the type it was stored at. *)
module Cache : sig
  type t

  val create : string -> t
  (** A handle on the given directory, created if needed (including
      parents). Creates no pack and reads nothing yet. *)

  val dir : t -> string

  val find : t -> key:string -> 'a option
  (** The value stored under [key], or [None] (counted as a miss) when
      absent or unreadable. *)

  val store : t -> key:string -> 'a -> unit
  (** Append [value] under [key] to this handle's pack: one open for
      append, one write, one close. Later finds through this handle read
      it. The value must contain no closures. *)
end
