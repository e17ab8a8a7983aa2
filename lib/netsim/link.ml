module Sim = Sim_engine.Sim

type t = {
  sim : Sim.t;
  rate_bps : Sim_engine.Units.rate_bps;
  queue : Droptail_queue.t;
  deliver : Packet.t -> unit;
  mutable busy : bool;
  mutable delivered_packets : int;
  mutable delivered_bytes : int;
  busy_time : float array;
      (* Singleton cell: accumulated per transmission, and a float array
         write does not box. *)
  (* Transmission completions are strictly FIFO (one packet serializes at
     a time), so they ride a calendar lane instead of the heap. *)
  mutable lane : Sim.lane option;
}

let start_next t =
  if Droptail_queue.is_empty t.queue then t.busy <- false
  else begin
    let p = Droptail_queue.dequeue_exn t.queue in
    t.busy <- true;
    let tx =
      (Sim_engine.Units.transmission_time ~rate_bps:t.rate_bps
         ~bytes:(Packet.size (Droptail_queue.packets t.queue) p)
        :> float)
    in
    t.busy_time.(0) <- t.busy_time.(0) +. tx;
    match t.lane with
    | Some lane -> Sim.schedule_packet t.sim lane ~delay:tx p
    | None -> assert false
  end

let create ~sim ~(rate_bps : Sim_engine.Units.rate_bps) ~queue ~deliver =
  if (rate_bps :> float) <= 0.0 then invalid_arg "Link.create: rate";
  let t =
    {
      sim;
      rate_bps;
      queue;
      deliver;
      busy = false;
      delivered_packets = 0;
      delivered_bytes = 0;
      busy_time = [| 0.0 |];
      lane = None;
    }
  in
  t.lane <-
    Some
      (Sim.lane sim ~deliver:(fun p ->
           t.delivered_packets <- t.delivered_packets + 1;
           t.delivered_bytes <-
             t.delivered_bytes + Packet.size (Droptail_queue.packets queue) p;
           t.deliver p;
           start_next t));
  t

let rate_bps t = t.rate_bps
let kick t = if not t.busy then start_next t
let busy t = t.busy
let delivered_packets t = t.delivered_packets
let delivered_bytes t = t.delivered_bytes
let busy_seconds t = Sim_engine.Units.seconds t.busy_time.(0)
