type flow_spec = { flow : int; base_rtt : Sim_engine.Units.seconds }

type t = {
  sim : Sim_engine.Sim.t;
  rate_bps : Sim_engine.Units.rate_bps;
  packets : Packet.table;  (* every handle of this run *)
  queue : Droptail_queue.t;
  link : Link.t;
  pipe : Pipe.t;  (* forward: bottleneck to receivers *)
  acks : Pipe.t;  (* reverse: receivers back to the ACK handlers *)
  trace : Sim_engine.Trace.t option;
  mutable orphaned : int;
  (* Per-flow tables, indexed by flow id (never negative) and grown
     together to the largest id registered, so every per-packet lookup is
     an array load. *)
  mutable rtts : float array;  (* nan = no registered path *)
  mutable receivers : (Packet.t -> unit) array;  (* [unset] = none *)
  mutable ack_handlers : (Packet.t -> unit) array;  (* [unset] = none *)
}

(* Fill for per-flow callback slots nobody registered. *)
let unset (_ : Packet.t) = ()

(* A packet of a flow without a receiver (an orphan) ends here. *)
let deliver_to_receiver t p =
  let flow = Packet.flow t.packets p in
  let receive =
    if flow >= 0 && flow < Array.length t.receivers then t.receivers.(flow)
    else unset
  in
  if receive == unset then begin
    t.orphaned <- t.orphaned + 1;
    Packet.release t.packets p
  end
  else receive p

(* Reverse-path delivery: hand the ACK to its flow's registered handler,
   which releases it; with no handler registered it ends here. *)
let dispatch_ack t p =
  let handler = t.ack_handlers.(Packet.flow t.packets p) in
  if handler == unset then Packet.release t.packets p else handler p

let[@simlint.alloc_ok "amortized geometric growth to the largest flow id"]
    extend a n fill =
  let b = Array.make n fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let[@simlint.alloc_ok "growth only: the float fill is boxed per call"] grow t
    flow =
  let n = max (flow + 1) (2 * Array.length t.rtts) in
  t.rtts <- extend t.rtts n nan;
  t.receivers <- extend t.receivers n unset;
  t.ack_handlers <- extend t.ack_handlers n unset

let ensure_flow t flow =
  if flow < 0 then invalid_arg "Dumbbell: negative flow id";
  if flow >= Array.length t.rtts then grow t flow

let add_flow t ~flow ~base_rtt =
  ensure_flow t flow;
  let rtt = (base_rtt : Sim_engine.Units.seconds :> float) in
  t.rtts.(flow) <- rtt;
  let delay = rtt /. 2.0 in
  Pipe.attach t.pipe ~flow ~delay;
  Pipe.attach t.acks ~flow ~delay

let create ?policy ?trace ~sim ~rate_bps ~buffer_bytes ~flows () =
  let packets = Packet.create_table () in
  let queue =
    Droptail_queue.create ?policy ~packets ~capacity_bytes:buffer_bytes ()
  in
  (* Drops surface on the telemetry stream through the queue's drop hook
     (chained onto whatever hook a later [set_drop_hook] caller installs
     would replace — instrumentation is installed first, at creation). *)
  (match trace with
  | None -> ()
  | Some tr ->
    let inner = Droptail_queue.drop_hook queue in
    Droptail_queue.set_drop_hook queue (fun ~early p ->
        Sim_engine.Trace.emit tr ~time:(Sim_engine.Sim.now sim)
          ~flow:(Packet.flow packets p)
          (Sim_engine.Trace.Drop
             {
               seq = Packet.seq packets p;
               size = Packet.size packets p;
               early;
               queue_bytes = Droptail_queue.occupancy_bytes queue;
             });
        inner ~early p));
  let t_ref = ref None in
  let pipe =
    Pipe.create ~sim ~packets ~deliver:(fun p ->
        match !t_ref with None -> () | Some t -> deliver_to_receiver t p)
  in
  let acks =
    Pipe.create ~sim ~packets ~deliver:(fun p ->
        match !t_ref with None -> () | Some t -> dispatch_ack t p)
  in
  let link = Link.create ~sim ~rate_bps ~queue ~deliver:(Pipe.send pipe) in
  let t =
    {
      sim;
      rate_bps;
      packets;
      queue;
      link;
      pipe;
      acks;
      trace;
      orphaned = 0;
      rtts = Array.make 16 nan;
      receivers = Array.make 16 unset;
      ack_handlers = Array.make 16 unset;
    }
  in
  t_ref := Some t;
  List.iter (fun { flow; base_rtt } -> add_flow t ~flow ~base_rtt) flows;
  t

let sim t = t.sim
let packets t = t.packets
let queue t = t.queue
let link t = t.link
let rate_bps t = t.rate_bps

let known_flow t ~flow =
  flow >= 0 && flow < Array.length t.rtts && not (Float.is_nan t.rtts.(flow))

let base_rtt_of t flow =
  if known_flow t ~flow then Sim_engine.Units.seconds t.rtts.(flow)
  else raise Not_found

let set_receiver t ~flow receive =
  ensure_flow t flow;
  t.receivers.(flow) <- receive

let receiver t ~flow =
  if flow >= 0 && flow < Array.length t.receivers
     && t.receivers.(flow) != unset
  then Some t.receivers.(flow)
  else None

let set_ack_handler t ~flow handler =
  ensure_flow t flow;
  t.ack_handlers.(flow) <- handler

let send_ack t p = Pipe.send t.acks p

(* The reverse path and ACK handler stay: a late ACK of a finished tenant
   must still reach its slot, whose guard discards (and releases) it. *)
let remove_flow t ~flow =
  if flow >= 0 && flow < Array.length t.rtts then begin
    t.rtts.(flow) <- nan;
    t.receivers.(flow) <- unset;
    Pipe.detach t.pipe ~flow
  end

let send t p =
  let verdict = Droptail_queue.enqueue t.queue p in
  (match verdict with
  | Droptail_queue.Enqueued ->
    (match t.trace with
    | None -> ()
    | Some tr ->
      Sim_engine.Trace.emit tr
        ~time:(Sim_engine.Sim.now t.sim)
        ~flow:Sim_engine.Trace.link_scope
        (Sim_engine.Trace.Queue_sample
           {
             queue_bytes = Droptail_queue.occupancy_bytes t.queue;
             queue_packets = Droptail_queue.length t.queue;
           }))
    [@simlint.alloc_ok
      "trace event: built only with a sink attached; the record is the \
       product"];
    Link.kick t.link
  | Droptail_queue.Dropped -> ());
  verdict

let reverse_delay t ~flow = Sim_engine.Units.scale 0.5 (base_rtt_of t flow)
let orphaned t = t.orphaned
let in_flight t = Pipe.in_flight t.pipe + Pipe.in_flight t.acks
