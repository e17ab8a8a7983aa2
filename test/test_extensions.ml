(* Tests for the extension features: RED AQM, data-limited (short) flows,
   and the extension experiment helpers. *)

module Sim = Sim_engine.Sim
module Units = Sim_engine.Units
module Q = Netsim.Droptail_queue

let red_queue policy ~capacity_bytes =
  Q.create ~packets:(Netsim.Packet.create_table ()) ~policy ~capacity_bytes ()

(* Offer a packet built in the queue's own table. *)
let offer q ?(flow = 0) ?(seq = 0) ?(size = 1500) () =
  Q.enqueue q
    (Netsim.Packet.take (Q.packets q) ~flow ~seq ~size ~retransmit:false
       ~sent_time:0.0 ~delivered:0.0 ~delivered_time:0.0)

(* --- RED policy --- *)

let red_policy ?(min_th = 10_000.0) ?(max_th = 30_000.0) ?(max_p = 0.5)
    ?(weight = 0.5) () =
  Q.Red
    {
      min_threshold = min_th;
      max_threshold = max_th;
      max_p;
      weight;
      rng = Sim_engine.Rng.create 7;
    }

let test_red_no_drop_below_min () =
  let q = red_queue (red_policy ()) ~capacity_bytes:100_000 in
  (* 6 packets = 9000 B, below min_th even instantaneously. *)
  for seq = 0 to 5 do
    match offer q ~seq () with
    | Q.Enqueued -> ()
    | Q.Dropped -> Alcotest.fail "drop below min threshold"
  done;
  Alcotest.(check int) "no early drops" 0 (Q.early_drops q)

let test_red_drops_early_above_min () =
  let q = red_queue (red_policy ()) ~capacity_bytes:1_000_000 in
  (* Push far beyond max_th without draining; with weight 0.5 the EWMA
     tracks quickly and early drops must appear well before the 1 MB
     capacity. *)
  for seq = 0 to 199 do
    ignore (offer q ~seq ())
  done;
  Alcotest.(check bool) "early drops happened" true (Q.early_drops q > 0);
  Alcotest.(check bool) "queue never filled" true
    (Q.occupancy_bytes q < 1_000_000)

let test_red_tail_drop_still_applies () =
  let q = red_queue (red_policy ~max_p:0.01 ~min_th:1e9 ~max_th:2e9 ())
      ~capacity_bytes:3000
  in
  (* Thresholds so high RED never fires: capacity still enforced. *)
  ignore (offer q ~seq:0 ());
  ignore (offer q ~seq:1 ());
  Alcotest.(check bool) "tail drop" true
    (offer q ~seq:2 () = Q.Dropped);
  Alcotest.(check int) "not an early drop" 0 (Q.early_drops q)

let test_red_average_tracks () =
  let q = red_queue (red_policy ~weight:1.0 ()) ~capacity_bytes:100_000 in
  ignore (offer q ~seq:0 ());
  ignore (offer q ~seq:1 ());
  (* weight 1.0: avg equals the instantaneous occupancy before the last
     arrival. *)
  Alcotest.(check (float 1.0)) "ewma" 1500.0 (Q.average_queue_bytes q)

let test_red_param_validation () =
  match
    red_queue (red_policy ~min_th:10.0 ~max_th:5.0 ())
      ~capacity_bytes:1000
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "max_th <= min_th should raise"

let test_red_defaults_shape () =
  match Q.red_defaults ~rng:(Sim_engine.Rng.create 1) ~capacity_bytes:100_000 with
  | Q.Red { min_threshold; max_threshold; max_p; _ } ->
    Alcotest.(check (float 1.0)) "min" 25_000.0 min_threshold;
    Alcotest.(check (float 1.0)) "max" 75_000.0 max_threshold;
    Alcotest.(check (float 0.0)) "max_p" 0.1 max_p
  | Q.Tail_drop -> Alcotest.fail "expected RED"

let test_red_experiment_runs () =
  let rate_bps = Units.mbps 20.0 in
  let config =
    Tcpflow.Experiment.config ~aqm:Tcpflow.Experiment.Red_default
      ~warmup:(Units.seconds 3.0) ~rate_bps
      ~buffer_bytes:
        (Tcpflow.Experiment.buffer_bytes_of_bdp ~rate_bps ~rtt:(Units.ms 20.0)
           ~bdp:5.0)
      ~duration:(Units.seconds 10.0)
      [
        Tcpflow.Experiment.flow_config ~base_rtt:(Units.ms 20.0) "cubic";
        Tcpflow.Experiment.flow_config ~base_rtt:(Units.ms 20.0) "bbr";
      ]
  in
  let red = Tcpflow.Experiment.run config in
  let droptail =
    Tcpflow.Experiment.run { config with aqm = Tcpflow.Experiment.Tail_drop }
  in
  Alcotest.(check bool) "red utilizes link" true (red.utilization > 0.7);
  Alcotest.(check bool) "red keeps shorter queue" true
    (red.queuing_delay <= droptail.queuing_delay +. 1e-3)

(* --- Data-limited flows --- *)

let short_flow_setup ~data_limit_bytes =
  let sim = Sim.create ~seed:2 () in
  let rate_bps = Units.mbps 10.0 in
  let net =
    Netsim.Dumbbell.create ~sim ~rate_bps ~buffer_bytes:100_000
      ~flows:[ { Netsim.Dumbbell.flow = 0; base_rtt = Units.ms 20.0 } ]
      ()
  in
  let cc =
    Cca.Registry.create "cubic" ~mss:Units.mss ~rng:(Sim_engine.Rng.create 1)
  in
  let sender =
    Tcpflow.Sender.create ~net ~flow:0 ~cc ~data_limit_bytes ()
  in
  (sim, sender)

let test_short_flow_completes () =
  let sim, sender = short_flow_setup ~data_limit_bytes:150_000 in
  Sim.run ~until:5.0 sim;
  Alcotest.(check bool) "completed" true (Tcpflow.Sender.completed sender);
  Alcotest.(check (float 1500.0)) "delivered exactly the limit" 150_000.0
    (Tcpflow.Sender.delivered_bytes sender)

let test_short_flow_stops_sending () =
  let sim, sender = short_flow_setup ~data_limit_bytes:30_000 in
  Sim.run ~until:5.0 sim;
  let delivered_at_5 = Tcpflow.Sender.delivered_bytes sender in
  Sim.run ~until:8.0 sim;
  Alcotest.(check (float 0.0)) "no more data after completion" delivered_at_5
    (Tcpflow.Sender.delivered_bytes sender);
  Alcotest.(check int) "sim drains (no RTO respawn)" 0
    (Sim.pending_events sim)

let test_bulk_flow_never_completes () =
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
  let sender = Tcpflow.Sender.create ~net ~flow:0 ~cc () in
  Sim.run ~until:2.0 sim;
  Alcotest.(check bool) "bulk never completes" false
    (Tcpflow.Sender.completed sender)

let test_short_flow_limit_validation () =
  match short_flow_setup ~data_limit_bytes:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "limit 0 should raise"

let test_short_flow_with_losses () =
  (* Tiny buffer forces drops; the flow must still complete via
     retransmissions. *)
  let sim = Sim.create ~seed:3 () in
  let rate_bps = Units.mbps 10.0 in
  let net =
    Netsim.Dumbbell.create ~sim ~rate_bps ~buffer_bytes:(3 * Units.mss)
      ~flows:[ { Netsim.Dumbbell.flow = 0; base_rtt = Units.ms 20.0 } ]
      ()
  in
  let cc =
    Cca.Registry.create "cubic" ~mss:Units.mss ~rng:(Sim_engine.Rng.create 1)
  in
  let sender = Tcpflow.Sender.create ~net ~flow:0 ~cc ~data_limit_bytes:200_000 () in
  Sim.run ~until:30.0 sim;
  Alcotest.(check bool) "completed despite drops" true
    (Tcpflow.Sender.completed sender)

(* --- Extension drivers (structure-level smoke tests) --- *)

let test_catalog_has_extensions () =
  List.iter
    (fun id ->
      Alcotest.(check bool) (id ^ " registered") true
        (Option.is_some (Experiments.Catalog.find id)))
    [ "ext-red"; "ext-utility"; "ext-internals"; "ext-2flow" ]

let tests =
  [
    Alcotest.test_case "RED below min" `Quick test_red_no_drop_below_min;
    Alcotest.test_case "RED early drops" `Quick test_red_drops_early_above_min;
    Alcotest.test_case "RED tail backstop" `Quick
      test_red_tail_drop_still_applies;
    Alcotest.test_case "RED ewma" `Quick test_red_average_tracks;
    Alcotest.test_case "RED validation" `Quick test_red_param_validation;
    Alcotest.test_case "RED defaults" `Quick test_red_defaults_shape;
    Alcotest.test_case "RED experiment" `Quick test_red_experiment_runs;
    Alcotest.test_case "short flow completes" `Quick test_short_flow_completes;
    Alcotest.test_case "short flow stops" `Quick test_short_flow_stops_sending;
    Alcotest.test_case "bulk never completes" `Quick
      test_bulk_flow_never_completes;
    Alcotest.test_case "limit validation" `Quick
      test_short_flow_limit_validation;
    Alcotest.test_case "short flow with losses" `Quick
      test_short_flow_with_losses;
    Alcotest.test_case "catalog extensions" `Quick test_catalog_has_extensions;
  ]
