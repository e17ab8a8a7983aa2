(** Shared infrastructure for the per-figure experiment drivers.

    Every driver produces a {!table} — the textual equivalent of one paper
    figure/table — and can run in two modes: {!Quick} (coarser grids,
    shorter simulated durations, fewer trials; minutes for the whole suite)
    and {!Full} (paper-scale grids and 2-minute runs). *)

type mode = Quick | Full

type ctx = {
  mode : mode;
  jobs : int;  (** Worker domains that simulation runs are spread over. *)
  cache : Sim_engine.Exec.Cache.t option;
      (** When set, completed runs are stored in this cache (content-addressed
          by config digest) and replayed on re-runs instead of
          re-simulating. One handle serves every run of the ctx, and of the
          ctxs {!sequential} derives from it, so a ctx appends to at most
          one pack and reads its directory's packs once. *)
  trace_dir : string option;
      (** When set, every simulated config writes a structured event trace
          to [<trace_dir>/<digest>.jsonl] plus a [.metrics] rollup sidecar.
          Traced runs bypass the result cache: a cache hit would skip the
          simulation and produce no trace. *)
}
(** Everything a driver needs to execute its plan: the grid scale ([mode])
    plus the execution policy ([jobs], [cache], [trace_dir]) threaded
    through to {!Runs.eval}. *)

val ctx :
  ?jobs:int -> ?cache_dir:string -> ?trace_dir:string -> mode -> ctx
(** [jobs] defaults to 1 (sequential); pass
    [Sim_engine.Exec.domain_count ()] to use every core. [cache_dir]
    opens the ctx's cache handle ({!Sim_engine.Exec.Cache.create}, which
    creates the directory). Raises [Invalid_argument] when [jobs < 1]. *)

val quick : ctx
(** [ctx Quick]: sequential, uncached — the tests' and benches' default. *)

val sequential : ctx -> ctx
(** The same ctx with [jobs = 1]; used by drivers that parallelise at a
    coarser granularity (one domain per grid point) to keep the inner
    per-trial batches from spawning nested worker pools. The result shares
    the ctx's cache handle, which is safe to use from several domains. *)

type table = {
  id : string;  (** e.g. ["fig03"]. *)
  title : string;
  header : string list;
  rows : string list list;
  notes : string list;  (** Caveats/observations appended when printing. *)
}

val print_table : Format.formatter -> table -> unit

val csv_of_table : table -> string

val write_csv : dir:string -> table -> string
(** Writes [<dir>/<id>.csv] (creating [dir] and any missing parents);
    returns the path. *)

val cell : float -> string
(** Format a float for a table cell ("-" for [nan]). *)

val cell_int : int -> string

val mbps : float -> float
(** bits/s → Mbps, for presentation. *)

val mean : float list -> float

val duration : mode -> Sim_engine.Units.seconds
(** Simulated time per run: 90 s (quick) / 120 s (full, as in the paper).
    Shorter runs systematically under-measure BBR, whose bandwidth filter
    needs tens of seconds to recover from CUBIC's slow-start overshoot. *)

val warmup : mode -> Sim_engine.Units.seconds

val trials : mode -> int
(** Seeds per configuration: 1 (quick) / 3 (full). *)

val buffer_grid : mode -> max:float -> float list
(** Buffer sizes in BDP for sweeps up to [max]: coarse in quick mode. *)

val count_grid : mode -> n:int -> int list
(** BBR-count grids 0..n: every value in full mode, strided in quick mode. *)
