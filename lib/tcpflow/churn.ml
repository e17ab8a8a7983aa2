module Sim = Sim_engine.Sim
module Rng = Sim_engine.Rng
module Units = Sim_engine.Units
module Dumbbell = Netsim.Dumbbell
module Schedule = Workload.Schedule

(* One pooled sender slot. The slot's sender is created on first use and
   then rebound for every later tenant, so steady-state churn reuses all
   transport containers; [item] remembers which schedule entry the current
   tenant serves so the completion callback (allocated once per slot) can
   file its FCT. *)
type slot = { sender : Sender.t; mutable item : int }

type t = {
  sim : Sim.t;
  net : Dumbbell.t;
  base_flow : int;
  cca : string;
  base_rtt : Units.seconds;
  schedule : Schedule.t;
  trace : Sim_engine.Trace.t option;
  (* Completion records, indexed by schedule position. [fcts.(i)] is nan
     until (unless) transfer [i] completes. *)
  fcts : float array;
  mutable completed : int;
  mutable arrived : int;
  mutable delivered_bytes : float;
  (* Slot pool: a LIFO stack of idle slots. LIFO keeps the hottest slot's
     tables in cache and makes reuse order deterministic. [all] tracks every
     slot ever created so teardown can reach the still-active ones. *)
  mutable free : slot list;
  mutable all : slot list;
  mutable slots_created : int;
  (* Self-scheduling arrival callback: one closure for the whole run. *)
  mutable next_item : int;
  mutable arrive_cb : unit -> unit;
}

let schedule t = t.schedule
let completed t = t.completed
let arrived t = t.arrived
let active t = t.arrived - t.completed
let slots_created t = t.slots_created
let delivered_bytes t = t.delivered_bytes
let fcts t = t.fcts
let flow_of_item t i = t.base_flow + i
let item_of_flow t ~flow = flow - t.base_flow

let is_churn_flow t ~flow =
  flow >= t.base_flow && flow < t.base_flow + Array.length t.fcts

let on_slot_complete t slot =
  let i = slot.item in
  t.fcts.(i) <- Sender.fct slot.sender;
  t.completed <- t.completed + 1;
  t.delivered_bytes <- t.delivered_bytes +. Sender.delivered_bytes slot.sender;
  Dumbbell.remove_flow t.net ~flow:(Sender.flow slot.sender);
  slot.item <- -1;
  (t.free <- slot :: t.free)
  [@simlint.alloc_ok "one pool-stack cell per completion; the slot is reused"]

let acquire_slot t ~flow ~cc ~size_bytes =
  match t.free with
  | slot :: rest ->
    t.free <- rest;
    Sender.rebind slot.sender ~flow ~cc ~data_limit_bytes:size_bytes ();
    slot
  | [] ->
    (* Pool empty: grow by one slot. Growth happens only while concurrency
       is still climbing toward its steady-state level. *)
    t.slots_created <- t.slots_created + 1;
    let sender =
      Sender.create ~net:t.net ~flow ~cc ~data_limit_bytes:size_bytes
        ?trace:t.trace ()
    in
    let slot = { sender; item = -1 } in
    Sender.set_on_complete sender (fun () -> on_slot_complete t slot);
    t.all <- slot :: t.all;
    slot

let arrive t =
  let i = t.next_item in
  if i < Array.length t.fcts then begin
    let it = t.schedule.(i) in
    let flow = t.base_flow + i in
    Dumbbell.add_flow t.net ~flow ~base_rtt:t.base_rtt;
    (* Per-tenant CC state draws its stream at arrival time, in event
       order: deterministic for a fixed seed regardless of pool shape. *)
    let cc =
      Cca.Registry.create t.cca ~mss:Units.mss ~rng:(Rng.split (Sim.rng t.sim))
    in
    let slot = acquire_slot t ~flow ~cc ~size_bytes:it.Schedule.size_bytes in
    slot.item <- i;
    t.arrived <- t.arrived + 1;
    (* Chain to the next arrival from here: one pending arrival event at a
       time, no per-item closures. *)
    t.next_item <- i + 1;
    if t.next_item < Array.length t.fcts then begin
      let gap =
        t.schedule.(t.next_item).Schedule.arrival_s -. it.Schedule.arrival_s
      in
      ignore (Sim.schedule t.sim ~delay:gap t.arrive_cb)
    end
  end

let create ?trace ~net ~base_flow ~cca ~base_rtt ~schedule () =
  let sim = Dumbbell.sim net in
  let t =
    {
      sim;
      net;
      base_flow;
      cca;
      base_rtt;
      schedule;
      trace;
      fcts = Array.make (Array.length schedule) nan;
      completed = 0;
      arrived = 0;
      delivered_bytes = 0.0;
      free = [];
      all = [];
      slots_created = 0;
      next_item = 0;
      arrive_cb = ignore;
    }
  in
  t.arrive_cb <- (fun () -> arrive t);
  if Array.length schedule > 0 then
    ignore
      (Sim.schedule sim ~delay:schedule.(0).Schedule.arrival_s t.arrive_cb);
  t

let teardown t =
  (* End-of-run cleanup for flows the horizon cut off: silence their timers
     and unregister their paths so a post-horizon drain cannot fire them.
     Completion records for these flows stay nan. *)
  List.iter
    (fun slot ->
      if not (Sender.finished slot.sender) then begin
        Sender.deactivate slot.sender;
        Dumbbell.remove_flow t.net ~flow:(Sender.flow slot.sender)
      end)
    t.all
