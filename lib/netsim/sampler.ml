type t = {
  sim : Sim_engine.Sim.t;
  queue : Droptail_queue.t;
  period : float;
  total : Sim_engine.Timeseries.t;
  class_names : string array;
  class_of_flow : int array;
  class_series : Sim_engine.Timeseries.t array;
  class_bytes : int array;  (* per-tick scratch, one cell per class *)
  mutable running : bool;
  mutable tick_cb : unit -> unit;
      (* Allocated once; rescheduling a periodic tick reuses it instead of
         closing over [t] afresh every period. *)
}

(* [now] is a parameter so that it is boxed once per tick and every
   [record] below passes that box on; a local binding would be boxed afresh
   at each call. *)
let sample t now =
  Sim_engine.Timeseries.record t.total ~time:now
    (float_of_int (Droptail_queue.occupancy_bytes t.queue));
  Droptail_queue.occupancy_by_class t.queue ~class_of_flow:t.class_of_flow
    t.class_bytes;
  for c = 0 to Array.length t.class_series - 1 do
    Sim_engine.Timeseries.record t.class_series.(c) ~time:now
      (float_of_int t.class_bytes.(c))
  done

let tick t =
  if t.running then begin
    sample t (Sim_engine.Sim.now t.sim);
    ignore (Sim_engine.Sim.schedule t.sim ~delay:t.period t.tick_cb)
  end

let create ~sim ~queue ~period ?(classes = [||]) ?(class_of_flow = [||]) ()
    =
  if period <= 0.0 then invalid_arg "Sampler.create: period";
  let n = Array.length classes in
  if Array.exists (fun c -> c >= n) class_of_flow then
    invalid_arg "Sampler.create: class_of_flow";
  let t =
    {
      sim;
      queue;
      period;
      total = Sim_engine.Timeseries.create ();
      class_names = classes;
      class_of_flow;
      class_series = Array.init n (fun _ -> Sim_engine.Timeseries.create ());
      class_bytes = Array.make n 0;
      running = true;
      tick_cb = ignore;
    }
  in
  t.tick_cb <- (fun () -> tick t);
  tick t;
  t

let stop t = t.running <- false
let total t = t.total

let class_series t name =
  match Array.find_index (String.equal name) t.class_names with
  | Some c -> t.class_series.(c)
  | None -> raise Not_found

let queuing_delay t ~rate_bps ~from_ ~until =
  let mean_bytes = Sim_engine.Timeseries.time_weighted_mean t.total ~from_ ~until in
  mean_bytes *. Sim_engine.Units.bits_per_byte /. rate_bps
