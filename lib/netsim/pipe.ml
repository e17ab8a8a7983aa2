module Sim = Sim_engine.Sim

type t = {
  sim : Sim.t;
  packets : Packet.table;
  deliver : Packet.t -> unit;
  mutable in_flight : int;
  (* One calendar lane per distinct one-way delay; [delays.(i)] is the
     delay of [lanes.(i)]. A run sees a handful of delays at most. *)
  mutable delays : float array;
  mutable lanes : Sim.lane array;
  (* Each flow's lane index, resolved when the flow attaches so the
     per-packet lookup is one array load; -1 = not attached. *)
  mutable flow_lane : int array;
}

let arrive t p =
  t.in_flight <- t.in_flight - 1;
  t.deliver p

let create ~sim ~packets ~deliver =
  { sim; packets; deliver; in_flight = 0; delays = [||]; lanes = [||];
    flow_lane = Array.make 16 (-1) }

let lane_index t delay =
  let rec find i =
    if i = Array.length t.delays then begin
      t.delays <- Array.append t.delays [| delay |];
      t.lanes <-
        Array.append t.lanes
          [| Sim.lane t.sim ~deliver:(arrive t) |];
      i
    end
    else if Float.equal t.delays.(i) delay then i
    else find (i + 1)
  in
  find 0

let attach t ~flow ~delay =
  if flow < 0 then invalid_arg "Pipe.attach: negative flow id";
  if not (delay >= 0.0) then invalid_arg "Pipe.attach: negative delay";
  if flow >= Array.length t.flow_lane then begin
    let a = Array.make (max (flow + 1) (2 * Array.length t.flow_lane)) (-1) in
    Array.blit t.flow_lane 0 a 0 (Array.length t.flow_lane);
    t.flow_lane <- a
  end;
  t.flow_lane.(flow) <- lane_index t delay

let detach t ~flow =
  if flow >= 0 && flow < Array.length t.flow_lane then
    t.flow_lane.(flow) <- -1

let send t p =
  let flow = Packet.flow t.packets p in
  let i =
    if flow >= 0 && flow < Array.length t.flow_lane then t.flow_lane.(flow)
    else -1
  in
  t.in_flight <- t.in_flight + 1;
  if i >= 0 then Sim.schedule_packet t.sim t.lanes.(i) ~delay:t.delays.(i) p
  else
    (* A detached flow's packet (its flow ended while the packet queued):
       still one scheduled delivery, so it draws its seq like any other,
       but on the heap rather than a lane of its own. *)
    ignore
      (Sim.schedule t.sim ~delay:0.0
         ((fun () -> arrive t p)
         [@simlint.alloc_ok
           "detached flow: a packet that outlived its flow, off the \
            steady-state path"]))

let in_flight t = t.in_flight
