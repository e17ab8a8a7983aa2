(** The experiment registry: every paper artifact (table/figure) mapped to
    its driver, for the CLI and the bench harness. *)

type entry = {
  id : string;
  summary : string;
  run : Common.ctx -> Common.table;
      (** Drivers receive the full execution context: grid scale
          ([ctx.mode]) plus the worker count and result-cache directory
          threaded down to {!Runs.eval}. *)
}

val all : entry list
(** In paper order: table1, fig01, fig03..fig12, then the repo's own
    artifacts ([evolve], [fluidgrid], [workload]) and the extensions
    (ext-red, ext-utility, ext-internals, ext-2flow) motivated by the
    paper's discussion sections and its ref [21]. *)

val find : string -> entry option
val ids : unit -> string list
