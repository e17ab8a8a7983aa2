(** Periodic polling of queue state into {!Sim_engine.Timeseries} traces.

    Experiments use these traces to measure the model's buffer-occupancy
    quantities (b_c, b_b, b_cmin, b_cmax) and the shared queuing delay. *)

type t

val create :
  sim:Sim_engine.Sim.t ->
  queue:Droptail_queue.t ->
  period:float ->
  ?classes:string array ->
  ?class_of_flow:int array ->
  unit ->
  t
(** Starts sampling immediately and then every [period] seconds. Each sample
    records total occupancy plus one series per named flow class, all
    classes summed in one pass over the queue's per-flow bytes (see
    {!Droptail_queue.occupancy_by_class}). Flow [id] belongs to class
    [classes.(class_of_flow.(id))]; a negative entry, or an id at or past
    [class_of_flow]'s length, belongs to none. Raises [Invalid_argument] if
    an entry is not below [Array.length classes]. *)

val stop : t -> unit

val total : t -> Sim_engine.Timeseries.t
(** Total queue occupancy in bytes over time. *)

val class_series : t -> string -> Sim_engine.Timeseries.t
(** Occupancy series of a named flow class. Raises [Not_found] if the class
    was not registered. *)

val queuing_delay : t -> rate_bps:float -> from_:float -> until:float -> float
(** Time-weighted mean queuing delay over the window: mean occupancy divided
    by drain rate. *)
