open Netsim
module Sim = Sim_engine.Sim

let mk_packet packets ?(flow = 0) ?(seq = 0) ?(size = 1500) () =
  Packet.take packets ~flow ~seq ~size ~retransmit:false ~sent_time:0.0
    ~delivered:0.0 ~delivered_time:0.0

let new_queue ~capacity_bytes =
  Droptail_queue.create ~packets:(Packet.create_table ()) ~capacity_bytes ()

(* Offer a packet built in the queue's own table. *)
let enqueue q ?flow ?seq ?size () =
  Droptail_queue.enqueue q
    (mk_packet (Droptail_queue.packets q) ?flow ?seq ?size ())

(* Dequeue and release, returning the packet's seq and size. *)
let dequeue q =
  let packets = Droptail_queue.packets q in
  let p = Droptail_queue.dequeue_exn q in
  let r = (Packet.seq packets p, Packet.size packets p) in
  Packet.release packets p;
  r

(* --- Packet handles --- *)

let test_packet_fields () =
  let packets = Packet.create_table () in
  let p =
    Packet.take packets ~flow:3 ~seq:7 ~size:1200 ~retransmit:true
      ~sent_time:1.5 ~delivered:3000.0 ~delivered_time:1.25
  in
  Alcotest.(check (list int)) "ints" [ 3; 7; 1200 ]
    [ Packet.flow packets p; Packet.seq packets p; Packet.size packets p ];
  Alcotest.(check bool) "retransmit" true (Packet.retransmit packets p);
  Alcotest.(check (list (float 0.0))) "stamps" [ 1.5; 3000.0; 1.25 ]
    [
      Packet.sent_time packets p;
      Packet.delivered packets p;
      Packet.delivered_time packets p;
    ];
  Alcotest.(check int) "live" 1 (Packet.live packets);
  Packet.release packets p;
  Alcotest.(check int) "released" 0 (Packet.live packets);
  (* More handles than the initial capacity: the table grows. *)
  let hs = List.init 200 (fun seq -> mk_packet packets ~seq ()) in
  Alcotest.(check (list int)) "seqs survive growth" (List.init 200 Fun.id)
    (List.map (Packet.seq packets) hs);
  List.iter (Packet.release packets) hs;
  Alcotest.(check int) "all released" 0 (Packet.live packets)

let test_packet_double_release () =
  let packets = Packet.create_table () in
  let p = mk_packet packets () in
  Packet.release packets p;
  Alcotest.(check bool) "not live" false (Packet.is_live packets p);
  Alcotest.check_raises "double release"
    (Invalid_argument "Packet.release: handle not live") (fun () ->
      Packet.release packets p);
  Alcotest.check_raises "never taken"
    (Invalid_argument "Packet.release: handle not live") (fun () ->
      Packet.release packets 1_000_000)

(* --- Droptail_queue --- *)

let test_fifo_order () =
  let q = new_queue ~capacity_bytes:10_000 in
  for seq = 0 to 4 do
    match enqueue q ~seq () with
    | Droptail_queue.Enqueued -> ()
    | Droptail_queue.Dropped -> Alcotest.fail "unexpected drop"
  done;
  for seq = 0 to 4 do
    Alcotest.(check int) "fifo" seq (fst (dequeue q))
  done;
  Alcotest.(check int) "all released" 0
    (Packet.live (Droptail_queue.packets q))

let test_capacity_drop () =
  let q = new_queue ~capacity_bytes:3000 in
  Alcotest.(check bool) "first fits" true
    (enqueue q () = Droptail_queue.Enqueued);
  Alcotest.(check bool) "second fits" true
    (enqueue q () = Droptail_queue.Enqueued);
  Alcotest.(check bool) "third dropped" true
    (enqueue q () = Droptail_queue.Dropped);
  Alcotest.(check int) "drop count" 1 (Droptail_queue.drops q);
  Alcotest.(check int) "dropped bytes" 1500 (Droptail_queue.dropped_bytes q);
  (* The queue releases the handle it dropped. *)
  Alcotest.(check int) "dropped handle released" 2
    (Packet.live (Droptail_queue.packets q))

let test_occupancy_accounting () =
  let q = new_queue ~capacity_bytes:100_000 in
  ignore (enqueue q ~flow:0 ~size:1000 ());
  ignore (enqueue q ~flow:1 ~size:2000 ());
  ignore (enqueue q ~flow:0 ~size:500 ());
  Alcotest.(check int) "total" 3500 (Droptail_queue.occupancy_bytes q);
  Alcotest.(check int) "flow 0" 1500 (Droptail_queue.occupancy_of_flow q 0);
  Alcotest.(check int) "flow 1" 2000 (Droptail_queue.occupancy_of_flow q 1);
  let sums = Array.make 2 0 in
  (* Flows 0 and 1 in classes 1 and 0; flow 2 (none queued) in no class. *)
  Droptail_queue.occupancy_by_class q ~class_of_flow:[| 1; 0; -1 |] sums;
  Alcotest.(check (array int)) "classes" [| 2000; 1500 |] sums;
  ignore (dequeue q);
  Alcotest.(check int) "flow 0 after dequeue" 500
    (Droptail_queue.occupancy_of_flow q 0)

let test_drop_hook () =
  let q = new_queue ~capacity_bytes:1500 in
  let dropped = ref [] in
  Droptail_queue.set_drop_hook q (fun ~early:_ p ->
      dropped := Packet.seq (Droptail_queue.packets q) p :: !dropped);
  ignore (enqueue q ~seq:1 ());
  ignore (enqueue q ~seq:2 ());
  Alcotest.(check (list int)) "hook saw seq 2" [ 2 ] !dropped

let test_empty_queue () =
  let q = new_queue ~capacity_bytes:1500 in
  Alcotest.(check bool) "is_empty" true (Droptail_queue.is_empty q);
  Alcotest.check_raises "dequeue raises" Droptail_queue.Empty (fun () ->
      ignore (Droptail_queue.dequeue_exn q))

let prop_byte_conservation =
  QCheck.Test.make ~name:"enqueued = dequeued + dropped + queued" ~count:200
    QCheck.(list_of_size (Gen.int_range 0 100) (int_range 100 3000))
    (fun sizes ->
      let q = new_queue ~capacity_bytes:10_000 in
      let enqueued = ref 0 in
      List.iteri
        (fun seq size ->
          match enqueue q ~seq ~size () with
          | Droptail_queue.Enqueued -> enqueued := !enqueued + size
          | Droptail_queue.Dropped -> ())
        sizes;
      let dequeued = ref 0 in
      (* dequeue half *)
      for _ = 1 to List.length sizes / 2 do
        if not (Droptail_queue.is_empty q) then
          dequeued := !dequeued + snd (dequeue q)
      done;
      !enqueued = !dequeued + Droptail_queue.occupancy_bytes q)

(* --- Link --- *)

let test_link_serialization () =
  let sim = Sim.create () in
  let q = new_queue ~capacity_bytes:1_000_000 in
  let delivered = ref [] in
  let link =
    Link.create ~sim ~rate_bps:(Sim_engine.Units.bps 12e6) ~queue:q ~deliver:(fun p ->
        delivered :=
          (Sim.now sim, Packet.seq (Droptail_queue.packets q) p) :: !delivered)
  in
  for seq = 0 to 2 do
    ignore (enqueue q ~seq ())
  done;
  Link.kick link;
  Sim.run sim;
  (* 1500 B at 12 Mbps = 1 ms per packet *)
  match List.rev !delivered with
  | [ (t1, 0); (t2, 1); (t3, 2) ] ->
    Alcotest.(check (float 1e-9)) "1st at 1ms" 0.001 t1;
    Alcotest.(check (float 1e-9)) "2nd at 2ms" 0.002 t2;
    Alcotest.(check (float 1e-9)) "3rd at 3ms" 0.003 t3
  | _ -> Alcotest.fail "wrong delivery sequence"

let test_link_counters () =
  let sim = Sim.create () in
  let q = new_queue ~capacity_bytes:1_000_000 in
  let link = Link.create ~sim ~rate_bps:(Sim_engine.Units.bps 12e6) ~queue:q ~deliver:ignore in
  for seq = 0 to 4 do
    ignore (enqueue q ~seq ())
  done;
  Link.kick link;
  Sim.run sim;
  Alcotest.(check int) "packets" 5 (Link.delivered_packets link);
  Alcotest.(check int) "bytes" 7500 (Link.delivered_bytes link);
  Alcotest.(check (float 1e-9)) "busy seconds" 0.005 ((Link.busy_seconds link :> float));
  Alcotest.(check bool) "idle at end" false (Link.busy link)

let test_link_kick_idempotent () =
  let sim = Sim.create () in
  let q = new_queue ~capacity_bytes:1_000_000 in
  let count = ref 0 in
  let link = Link.create ~sim ~rate_bps:(Sim_engine.Units.bps 12e6) ~queue:q ~deliver:(fun _ -> incr count) in
  ignore (enqueue q ());
  Link.kick link;
  Link.kick link;
  Link.kick link;
  Sim.run sim;
  Alcotest.(check int) "delivered once" 1 !count

(* --- Pipe --- *)

let test_pipe_delay () =
  let sim = Sim.create () in
  let arrival = ref nan in
  let packets = Packet.create_table () in
  let pipe = Pipe.create ~sim ~packets ~deliver:(fun _ -> arrival := Sim.now sim) in
  Pipe.attach pipe ~flow:0 ~delay:0.02;
  Pipe.send pipe (mk_packet packets ());
  Alcotest.(check int) "in flight" 1 (Pipe.in_flight pipe);
  Sim.run sim;
  Alcotest.(check (float 1e-12)) "arrives after delay" 0.02 !arrival;
  Alcotest.(check int) "none in flight" 0 (Pipe.in_flight pipe)

let test_pipe_per_flow_delay () =
  let sim = Sim.create () in
  let arrivals = ref [] in
  let packets = Packet.create_table () in
  let pipe =
    Pipe.create ~sim ~packets
      ~deliver:(fun p ->
        arrivals := (Packet.flow packets p, Sim.now sim) :: !arrivals)
  in
  Pipe.attach pipe ~flow:0 ~delay:0.01;
  Pipe.attach pipe ~flow:1 ~delay:0.03;
  Pipe.send pipe (mk_packet packets ~flow:1 ());
  Pipe.send pipe (mk_packet packets ~flow:0 ());
  Sim.run sim;
  Alcotest.(check (list (pair int (float 1e-12))))
    "per-flow delays"
    [ (0, 0.01); (1, 0.03) ]
    (List.rev !arrivals)

(* --- Dumbbell --- *)

let test_dumbbell_end_to_end () =
  let sim = Sim.create () in
  let net =
    Dumbbell.create ~sim ~rate_bps:(Sim_engine.Units.bps 12e6) ~buffer_bytes:1_000_000
      ~flows:[ { Dumbbell.flow = 0; base_rtt = Sim_engine.Units.ms 40.0 } ] ()
  in
  let arrival = ref nan in
  Dumbbell.set_receiver net ~flow:0 (fun _ -> arrival := Sim.now sim);
  ignore (Dumbbell.send net (mk_packet (Dumbbell.packets net) ()));
  Sim.run sim;
  (* serialization 1 ms + one-way 20 ms *)
  Alcotest.(check (float 1e-9)) "arrival time" 0.021 !arrival;
  Alcotest.(check (float 1e-9)) "reverse delay" 0.02
    ((Dumbbell.reverse_delay net ~flow:0 :> float))

let test_dumbbell_orphan () =
  let sim = Sim.create () in
  let net =
    Dumbbell.create ~sim ~rate_bps:(Sim_engine.Units.bps 12e6) ~buffer_bytes:1_000_000
      ~flows:[ { Dumbbell.flow = 0; base_rtt = Sim_engine.Units.ms 40.0 } ] ()
  in
  ignore (Dumbbell.send net (mk_packet (Dumbbell.packets net) ~flow:7 ()));
  Sim.run sim;
  Alcotest.(check int) "orphaned" 1 (Dumbbell.orphaned net);
  Alcotest.(check int) "orphan released" 0
    (Packet.live (Dumbbell.packets net))

let test_dumbbell_rtt_lookup () =
  let sim = Sim.create () in
  let net =
    Dumbbell.create ~sim ~rate_bps:(Sim_engine.Units.bps 12e6) ~buffer_bytes:1_000_000
      ~flows:
        [
          { Dumbbell.flow = 0; base_rtt = Sim_engine.Units.ms 40.0 };
          { Dumbbell.flow = 1; base_rtt = Sim_engine.Units.ms 80.0 };
        ]
      ()
  in
  Alcotest.(check (float 0.0)) "flow 0" 0.04 ((Dumbbell.base_rtt_of net 0 :> float));
  Alcotest.(check (float 0.0)) "flow 1" 0.08 ((Dumbbell.base_rtt_of net 1 :> float));
  match Dumbbell.base_rtt_of net 9 with
  | exception Not_found -> ()
  | _ -> Alcotest.fail "expected Not_found"

(* --- Queue statistics --- *)

(* Runs an experiment whose flows never start, with [loads] (flow, bytes)
   parked in its bottleneck at time 0, after the first queue sample. They
   go straight into the queue, so the link never drains them, and the
   result's queue statistics read a known occupancy. *)
let parked_queue_run ~rate_bps ~warmup ~duration ccas loads =
  let module E = Tcpflow.Experiment in
  let module U = Sim_engine.Units in
  let config =
    E.config ~warmup:(U.seconds warmup) ~sample_period:(U.ms 10.0)
      ~rate_bps:(U.bps rate_bps) ~buffer_bytes:1_000_000
      ~duration:(U.seconds duration)
      (List.map (E.flow_config ~start_time:(U.seconds 1e3)) ccas)
  in
  let live = E.setup config in
  let q = Dumbbell.queue (E.live_net live) in
  List.iter (fun (flow, size) -> ignore (enqueue q ~flow ~size ())) loads;
  E.finish live

let test_sampler_series () =
  (* Flow 2 is past the static flows, as a churn flow is: in no class. *)
  let r =
    parked_queue_run ~rate_bps:1e6 ~warmup:0.01 ~duration:0.05
      [ "cubic"; "bbr" ] [ (0, 1000); (2, 500) ]
  in
  let open Tcpflow.Experiment in
  Alcotest.(check (float 1e-6)) "total occupancy" 1500.0 r.queue_mean_bytes;
  Alcotest.(check (list string)) "classes" [ "bbr"; "cubic" ]
    (List.map fst r.class_mean_bytes);
  Alcotest.(check (float 1e-6)) "class occupancy" 1000.0
    (List.assoc "cubic" r.class_mean_bytes);
  (* The empty sample at time 0 precedes the warm-up. *)
  Alcotest.(check (float 0.0)) "class min" 1000.0
    (List.assoc "cubic" r.class_min_bytes);
  Alcotest.(check (float 0.0)) "class max" 1000.0
    (List.assoc "cubic" r.class_max_bytes);
  Alcotest.(check (float 0.0)) "empty class" 0.0
    (List.assoc "bbr" r.class_max_bytes)

let test_sampler_queuing_delay () =
  let r =
    parked_queue_run ~rate_bps:1e6 ~warmup:0.01 ~duration:0.1 [ "cubic" ]
      [ (0, 12500) ]
  in
  (* 12500 B at 1 Mbps (125000 B/s) -> 0.1 s *)
  Alcotest.(check (float 1e-9)) "queuing delay" 0.1
    r.Tcpflow.Experiment.queuing_delay

let tests =
  [
    Alcotest.test_case "packet fields" `Quick test_packet_fields;
    Alcotest.test_case "packet double release" `Quick
      test_packet_double_release;
    Alcotest.test_case "droptail FIFO" `Quick test_fifo_order;
    Alcotest.test_case "droptail capacity" `Quick test_capacity_drop;
    Alcotest.test_case "droptail occupancy" `Quick test_occupancy_accounting;
    Alcotest.test_case "droptail drop hook" `Quick test_drop_hook;
    Alcotest.test_case "droptail empty" `Quick test_empty_queue;
    QCheck_alcotest.to_alcotest prop_byte_conservation;
    Alcotest.test_case "link serialization" `Quick test_link_serialization;
    Alcotest.test_case "link counters" `Quick test_link_counters;
    Alcotest.test_case "link kick idempotent" `Quick test_link_kick_idempotent;
    Alcotest.test_case "pipe delay" `Quick test_pipe_delay;
    Alcotest.test_case "pipe per-flow delay" `Quick test_pipe_per_flow_delay;
    Alcotest.test_case "dumbbell end-to-end" `Quick test_dumbbell_end_to_end;
    Alcotest.test_case "dumbbell orphan" `Quick test_dumbbell_orphan;
    Alcotest.test_case "dumbbell rtt lookup" `Quick test_dumbbell_rtt_lookup;
    Alcotest.test_case "sampler series" `Quick test_sampler_series;
    Alcotest.test_case "sampler queuing delay" `Quick test_sampler_queuing_delay;
  ]
