(* Fixture: rule R7 (Sim.schedule / schedule_at callback capturing a packet). *)

let resend sim packet = ignore (Sim.schedule sim ~delay:0.1 (fun () -> deliver packet))

let resend_at sim pkt = ignore (Sim.schedule_at sim ~time:1.0 (fun () -> deliver pkt))

let by_field sim p = ignore (Sim.schedule sim ~delay:0.1 (fun () -> consume p.Packet.seq))

let qualified sim packet =
  ignore (Sim_engine.Sim.schedule sim ~delay:0.2 (fun () -> deliver packet))

let by_accessor sim tbl h = ignore (Sim.schedule sim ~delay:0.1 (fun () -> consume (Packet.seq tbl h)))

(* Clean: the lane API passes the packet as an argument, no closure. *)
let fine_lane sim lane p = Sim.schedule_packet sim lane ~delay:0.1 p

(* Clean: a plain timer with no packet in sight. *)
let fine_timer sim cb = ignore (Sim.schedule sim ~delay:0.1 cb)

(* Clean: [packet] is bound inside the callback, not captured. *)
let fine_bound sim ps =
  ignore (Sim.schedule sim ~delay:0.1 (fun () -> List.iter (fun packet -> consume packet) ps))
