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

(** Content-addressed result store: values are marshalled under the MD5 of
    a caller-chosen key string (for experiments, the marshalled config).

    Reads are typed by the caller ([find] is as unsafe as [Marshal]): only
    read a key with the type it was stored at. Corrupted, truncated, or
    foreign files are treated as misses, never errors. Concurrent writers
    are safe: files are written to a temp name and renamed into place. *)
module Cache : sig
  type t

  val create : string -> t
  (** Use (and create if needed, including parents) the given directory. *)

  val dir : t -> string

  val find : t -> key:string -> 'a option
  (** The value stored under [key], or [None] (counted as a miss) when
      absent or unreadable. *)

  val store : t -> key:string -> 'a -> unit
  (** Persist [value] under [key], atomically replacing any previous
      entry. The value must contain no closures. *)
end
