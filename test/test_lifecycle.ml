(* Flow-lifecycle battery: slot-pooled churn over the dumbbell — completion
   events with positive FCTs, sender-slot reuse, mid-sim attach/detach, and
   a fully traced churn run replayed through the lifecycle auditor. *)

module Sim = Sim_engine.Sim
module Units = Sim_engine.Units
module Tr = Sim_engine.Trace
module E = Tcpflow.Experiment
module Churn = Tcpflow.Churn
module Audit = Sim_check.Audit

let item arrival_s size_bytes = { Workload.Schedule.arrival_s; size_bytes }

(* One churn population on an otherwise idle 10 Mbps / 20 ms dumbbell. *)
let churn_setup ?(buffer_bytes = 100_000) ?trace schedule =
  let sim = Sim.create ~seed:5 () in
  let net =
    Netsim.Dumbbell.create ?trace ~sim ~rate_bps:(Units.mbps 10.0)
      ~buffer_bytes ~flows:[] ()
  in
  let churn =
    Churn.create ?trace ~net ~base_flow:0 ~cca:"cubic"
      ~base_rtt:(Units.ms 20.0) ~schedule ()
  in
  (sim, net, churn)

let test_completion_positive_fct () =
  let schedule = [| item 0.1 40_000; item 0.2 80_000; item 0.35 25_000 |] in
  let sim, _net, churn = churn_setup schedule in
  Sim.run ~until:20.0 sim;
  Alcotest.(check int) "all arrived" 3 (Churn.arrived churn);
  Alcotest.(check int) "all completed" 3 (Churn.completed churn);
  Alcotest.(check int) "none active" 0 (Churn.active churn);
  Array.iter
    (fun fct ->
      Alcotest.(check bool) "fct finite" true (Float.is_finite fct);
      Alcotest.(check bool) "fct positive" true (fct > 0.0))
    (Churn.fcts churn);
  (* Transfers round up to whole segments: 27 + 54 + 17 segments. *)
  Alcotest.(check (float 1.0)) "delivered everything" 147_000.0
    (Churn.delivered_bytes churn)

let test_slot_reuse_sequential () =
  (* Arrivals spaced far apart: each transfer finishes before the next is
     born, so one physical slot serves the entire population. *)
  let schedule =
    Array.init 5 (fun i -> item (2.0 *. float_of_int i) 30_000)
  in
  let sim, _net, churn = churn_setup schedule in
  Sim.run ~until:30.0 sim;
  Alcotest.(check int) "all completed" 5 (Churn.completed churn);
  Alcotest.(check int) "one slot reused throughout" 1
    (Churn.slots_created churn)

let test_slot_pool_bounded_by_concurrency () =
  (* A burst of simultaneous arrivals needs one slot each, but the pool
     never exceeds peak concurrency even across many transfers. *)
  let schedule =
    Array.init 12 (fun i -> item (0.5 *. float_of_int (i / 3)) 20_000)
  in
  let sim, _net, churn = churn_setup schedule in
  Sim.run ~until:30.0 sim;
  Alcotest.(check int) "all completed" 12 (Churn.completed churn);
  Alcotest.(check bool) "slots below population" true
    (Churn.slots_created churn < Churn.arrived churn)

let test_flow_ids_never_reused () =
  let schedule = Array.init 4 (fun i -> item (float_of_int i) 15_000) in
  let sim, _net, churn = churn_setup schedule in
  Sim.run ~until:20.0 sim;
  for i = 0 to 3 do
    Alcotest.(check int) "flow id = base + item" i
      (Churn.flow_of_item churn i);
    Alcotest.(check int) "item of flow" i (Churn.item_of_flow churn ~flow:i);
    Alcotest.(check bool) "is churn flow" true
      (Churn.is_churn_flow churn ~flow:i)
  done;
  Alcotest.(check bool) "unknown flow" false
    (Churn.is_churn_flow churn ~flow:99)

let test_dumbbell_attach_detach () =
  let sim = Sim.create ~seed:1 () in
  let net =
    Netsim.Dumbbell.create ~sim ~rate_bps:(Units.mbps 10.0)
      ~buffer_bytes:50_000 ~flows:[] ()
  in
  Alcotest.(check bool) "unknown before attach" false
    (Netsim.Dumbbell.known_flow net ~flow:7);
  Netsim.Dumbbell.add_flow net ~flow:7 ~base_rtt:(Units.ms 30.0);
  Alcotest.(check bool) "known after attach" true
    (Netsim.Dumbbell.known_flow net ~flow:7);
  Alcotest.(check (float 1e-12)) "rtt registered" 0.030
    (Netsim.Dumbbell.base_rtt_of net 7 :> float);
  (* Re-registration updates the RTT in place. *)
  Netsim.Dumbbell.add_flow net ~flow:7 ~base_rtt:(Units.ms 50.0);
  Alcotest.(check (float 1e-12)) "rtt updated" 0.050
    (Netsim.Dumbbell.base_rtt_of net 7 :> float);
  Netsim.Dumbbell.remove_flow net ~flow:7;
  Alcotest.(check bool) "unknown after detach" false
    (Netsim.Dumbbell.known_flow net ~flow:7)

let test_dumbbell_orphans_detached_flow () =
  (* A packet in flight when its flow detaches is counted and discarded,
     not delivered to a stale receiver. *)
  let sim = Sim.create ~seed:1 () in
  let net =
    Netsim.Dumbbell.create ~sim ~rate_bps:(Units.mbps 10.0)
      ~buffer_bytes:50_000 ~flows:[] ()
  in
  Netsim.Dumbbell.add_flow net ~flow:3 ~base_rtt:(Units.ms 20.0);
  let delivered = ref 0 in
  Netsim.Dumbbell.set_receiver net ~flow:3 (fun _ -> incr delivered);
  let pkt =
    Netsim.Packet.make ~flow:3 ~seq:0 ~size:1500 ~retransmit:false
      ~sent_time:0.0 ~delivered:0.0 ~delivered_time:0.0
  in
  ignore (Netsim.Dumbbell.send net pkt);
  Netsim.Dumbbell.remove_flow net ~flow:3;
  Sim.run ~until:1.0 sim;
  Alcotest.(check int) "not delivered" 0 !delivered;
  Alcotest.(check int) "orphaned" 1 (Netsim.Dumbbell.orphaned net)

let test_rebind_requires_finished_tenant () =
  let sim = Sim.create ~seed:2 () in
  let net =
    Netsim.Dumbbell.create ~sim ~rate_bps:(Units.mbps 10.0)
      ~buffer_bytes:100_000
      ~flows:[ { Netsim.Dumbbell.flow = 0; base_rtt = Units.ms 20.0 } ]
      ()
  in
  let cc =
    Cca.Registry.create "cubic" ~mss:Units.mss ~rng:(Sim_engine.Rng.create 1)
  in
  let sender =
    Tcpflow.Sender.create ~net ~flow:0 ~cc ~data_limit_bytes:500_000 ()
  in
  Sim.run ~until:0.05 sim;
  Alcotest.(check bool) "tenant still running" false
    (Tcpflow.Sender.finished sender);
  Netsim.Dumbbell.add_flow net ~flow:1 ~base_rtt:(Units.ms 20.0);
  (match
     Tcpflow.Sender.rebind sender ~flow:1 ~cc ~data_limit_bytes:1000 ()
   with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "rebind of a live slot should raise")

let test_teardown_cuts_active_flows () =
  (* A transfer far larger than the horizon can drain: teardown must cancel
     it, leave its FCT nan, and let the sim drain to empty. *)
  let schedule = [| item 0.1 20_000; item 0.2 50_000_000 |] in
  let sim, _net, churn = churn_setup schedule in
  Sim.run ~until:3.0 sim;
  Alcotest.(check int) "short one done" 1 (Churn.completed churn);
  Alcotest.(check int) "long one active" 1 (Churn.active churn);
  Churn.teardown churn;
  Sim.run ~until:10.0 sim;
  Alcotest.(check int) "no completion after teardown" 1
    (Churn.completed churn);
  Alcotest.(check bool) "cut flow keeps nan fct" true
    (Float.is_nan (Churn.fcts churn).(1));
  Alcotest.(check int) "sim drained" 0 (Sim.pending_events sim)

(* Calendar lanes are keyed by delay, not by flow: a churn population at
   one RTT must end with the link's lane plus one forward and one reverse
   lane, however many short flows and sender slots it went through. (With
   a lane per flow, every short flow added a pipe lane and every slot an
   ACK lane, and the merge loop scanned them all on every event.) *)
let test_churn_lanes_keyed_by_delay () =
  let schedule =
    Array.init 240 (fun i -> item (0.02 *. float_of_int i) 15_000)
  in
  let sim, _net, churn = churn_setup schedule in
  Sim.run ~until:20.0 sim;
  Alcotest.(check bool) "at least 200 arrivals" true
    (Churn.arrived churn >= 200);
  Alcotest.(check bool) "several slots" true (Churn.slots_created churn > 1);
  Alcotest.(check int) "link + forward + reverse lanes" 3
    (Sim.lane_count sim)

(* Full experiment: static long flows + workload churn, every event traced
   and replayed through the lifecycle auditor. Zero violations expected. *)
let test_traced_churn_run_audits_clean () =
  let rate_bps = Units.mbps 20.0 in
  let mean_size = 60_000.0 in
  let cfg =
    E.config ~seed:9 ~warmup:(Units.seconds 0.5) ~rate_bps
      ~buffer_bytes:
        (E.buffer_bytes_of_bdp ~rate_bps ~rtt:(Units.ms 20.0) ~bdp:3.0)
      ~duration:(Units.seconds 4.0)
      ~workload:
        {
          E.wl_arrival =
            Workload.Arrival.poisson_of_load ~load:0.3
              ~rate_bps:(rate_bps :> float) ~mean_size_bytes:mean_size;
          wl_sizes =
            Workload.Dist.Uniform { lo_bytes = 30_000; hi_bytes = 90_000 };
          wl_cca = "cubic";
          wl_rtt = Units.ms 20.0;
        }
      [
        E.flow_config ~base_rtt:(Units.ms 20.0) "cubic";
        E.flow_config ~base_rtt:(Units.ms 20.0) "bbr";
      ]
  in
  let hub = Tr.create ~ring_capacity:256 () in
  let audit =
    Audit.create ~queue_capacity_bytes:cfg.E.buffer_bytes ~lifecycle:true ()
  in
  Audit.attach audit hub;
  let live = E.setup ~trace:hub cfg in
  let sim = E.live_sim live in
  let net = E.live_net live in
  Sim.run ~until:(cfg.E.duration :> float) sim;
  let result = E.finish live in
  Tr.close hub;
  let queue = Netsim.Dumbbell.queue net in
  let link = Netsim.Dumbbell.link net in
  Audit.finalize audit
    {
      Audit.fin_time = Sim.now sim;
      fin_busy_seconds = (Netsim.Link.busy_seconds link :> float);
      fin_queue_bytes = Netsim.Droptail_queue.occupancy_bytes queue;
      fin_queue_packets = Netsim.Droptail_queue.length queue;
      fin_link_busy = Netsim.Link.busy link;
      fin_tx_slack_seconds = 1500.0 *. 8.0 /. (rate_bps :> float);
      fin_enqueued_packets = Netsim.Droptail_queue.enqueued_packets queue;
      fin_dropped_packets = Netsim.Droptail_queue.drops queue;
      fin_delivered_packets = Netsim.Link.delivered_packets link;
      fin_inflight_bytes =
        Array.to_list
          (Array.map
             (fun s ->
               (Tcpflow.Sender.flow s, Tcpflow.Sender.inflight_bytes s))
             (E.live_senders live));
      fin_completed_flows =
        Option.map Tcpflow.Churn.completed (E.live_churn live);
    };
  (match Audit.first_violation audit with
  | None -> ()
  | Some v -> Alcotest.fail (Audit.violation_to_string v));
  Alcotest.(check bool) "some short flows arrived" true
    (result.E.workload_arrived > 0);
  Alcotest.(check bool) "some short flows completed" true
    (result.E.workload_completed > 0);
  List.iter
    (fun c ->
      Alcotest.(check bool) "completion fct positive" true (c.E.cp_fct > 0.0))
    result.E.completions

let test_completions_match_schedule_on_long_horizon () =
  (* Light load and a horizon with plenty of slack: every scheduled
     transfer must complete and report back through the result record. *)
  let rate_bps = Units.mbps 10.0 in
  let cfg =
    E.config ~seed:4 ~rate_bps ~buffer_bytes:50_000
      ~duration:(Units.seconds 12.0)
      ~workload:
        {
          E.wl_arrival = Workload.Arrival.Poisson { rate_per_s = 2.0 };
          wl_sizes = Workload.Dist.Fixed 20_000;
          wl_cca = "reno";
          wl_rtt = Units.ms 20.0;
        }
      [ E.flow_config ~base_rtt:(Units.ms 20.0) "reno" ]
  in
  let live = E.setup cfg in
  let sim = E.live_sim live in
  (* Stop arrivals well before the end so stragglers can drain. *)
  Sim.run ~until:12.0 sim;
  let result = E.finish live in
  let churn = Option.get (E.live_churn live) in
  let within_slack =
    Array.for_all
      (fun it -> it.Workload.Schedule.arrival_s < 9.0)
      (Churn.schedule churn)
  in
  if within_slack then
    Alcotest.(check int) "every arrival completed"
      result.E.workload_arrived result.E.workload_completed;
  Alcotest.(check int) "one completion record per finish"
    result.E.workload_completed
    (List.length result.E.completions)

let tests =
  [
    Alcotest.test_case "completion + positive fct" `Quick
      test_completion_positive_fct;
    Alcotest.test_case "slot reuse (sequential)" `Quick
      test_slot_reuse_sequential;
    Alcotest.test_case "slot pool bounded" `Quick
      test_slot_pool_bounded_by_concurrency;
    Alcotest.test_case "flow ids monotone" `Quick test_flow_ids_never_reused;
    Alcotest.test_case "dumbbell attach/detach" `Quick
      test_dumbbell_attach_detach;
    Alcotest.test_case "dumbbell orphans" `Quick
      test_dumbbell_orphans_detached_flow;
    Alcotest.test_case "rebind guard" `Quick
      test_rebind_requires_finished_tenant;
    Alcotest.test_case "teardown" `Quick test_teardown_cuts_active_flows;
    Alcotest.test_case "lanes keyed by delay" `Quick
      test_churn_lanes_keyed_by_delay;
    Alcotest.test_case "traced churn audits clean" `Quick
      test_traced_churn_run_audits_clean;
    Alcotest.test_case "long-horizon completions" `Quick
      test_completions_match_schedule_on_long_horizon;
  ]
