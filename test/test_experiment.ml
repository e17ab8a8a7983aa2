module E = Tcpflow.Experiment
module Units = Sim_engine.Units

let quick_config ?(flows = [ E.flow_config "cubic"; E.flow_config "bbr" ]) () =
  let rate_bps = Units.mbps 20.0 in
  E.config ~warmup:(Units.seconds 2.0) ~rate_bps
    ~buffer_bytes:(E.buffer_bytes_of_bdp ~rate_bps ~rtt:(Units.ms 40.0) ~bdp:3.0)
    ~duration:(Units.seconds 8.0) flows

let test_utilization_high () =
  let r = E.run (quick_config ()) in
  Alcotest.(check bool)
    (Printf.sprintf "utilization (%.2f)" r.E.utilization)
    true (r.E.utilization > 0.9)

let test_throughput_sums_to_capacity () =
  let r = E.run (quick_config ()) in
  let total =
    List.fold_left (fun acc f -> acc +. f.E.throughput_bps) 0.0 r.E.per_flow
  in
  Alcotest.(check bool)
    (Printf.sprintf "sum ~capacity (%.1f Mbps)" (total /. 1e6))
    true
    (total > 0.85 *. 20e6 && total < 1.02 *. 20e6)

let test_per_cca_helpers () =
  let r = E.run (quick_config ()) in
  let cubic = E.throughput_of_cca r "cubic" in
  Alcotest.(check int) "one cubic flow" 1 (List.length cubic);
  Alcotest.(check bool) "mean = value" true
    (E.mean_throughput_of_cca r "cubic" = List.hd cubic);
  Alcotest.(check bool) "aggregate = value" true
    (E.aggregate_throughput_of_cca r "cubic" = List.hd cubic);
  Alcotest.(check bool) "missing cca nan" true
    (Float.is_nan (E.mean_throughput_of_cca r "reno"))

let test_class_occupancy_present () =
  let r = E.run (quick_config ()) in
  let mean name = List.assoc name r.E.class_mean_bytes in
  Alcotest.(check bool) "cubic occupies buffer" true (mean "cubic" > 0.0);
  Alcotest.(check bool) "bbr occupies buffer" true (mean "bbr" > 0.0)

let test_queuing_delay_bounded () =
  let r = E.run (quick_config ()) in
  (* Buffer is 3 BDP = 120 ms of queue at most. *)
  Alcotest.(check bool)
    (Printf.sprintf "qdelay <= 0.125s (%.3f)" r.E.queuing_delay)
    true
    (r.E.queuing_delay >= 0.0 && r.E.queuing_delay <= 0.125)

let test_warmup_validation () =
  let config = { (quick_config ()) with warmup = Units.seconds 9.0 } in
  (match E.run config with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "warmup >= duration should raise");
  List.iter
    (fun period ->
      let config =
        { (quick_config ()) with sample_period = Units.seconds period }
      in
      Alcotest.check_raises "sample period"
        (Invalid_argument "Experiment.run: sample_period must be > 0")
        (fun () -> ignore (E.setup config)))
    [ 0.0; -1.0; nan ]

let test_buffer_bytes_of_bdp () =
  Alcotest.(check int) "3 bdp at 20 Mbps x 40 ms" 300_000
    (E.buffer_bytes_of_bdp ~rate_bps:(Units.mbps 20.0) ~rtt:(Units.ms 40.0)
       ~bdp:3.0);
  Alcotest.(check int) "floor one mss" Units.mss
    (E.buffer_bytes_of_bdp ~rate_bps:(Units.mbps 1.0) ~rtt:(Units.ms 1.0)
       ~bdp:0.001)

let test_flow_result_metadata () =
  let r = E.run (quick_config ()) in
  let f = List.hd r.E.per_flow in
  Alcotest.(check int) "flow id" 0 f.E.flow_id;
  Alcotest.(check string) "cca" "cubic" f.E.flow_cca;
  Alcotest.(check (float 0.0)) "rtt" 0.04 f.E.flow_rtt

let test_multi_rtt_flows () =
  let flows =
    [
      E.flow_config ~base_rtt:(Units.ms 10.0) "cubic";
      E.flow_config ~base_rtt:(Units.ms 50.0) "cubic";
    ]
  in
  let r = E.run (quick_config ~flows ()) in
  let short = List.nth r.E.per_flow 0 and long = List.nth r.E.per_flow 1 in
  Alcotest.(check bool) "short RTT cubic wins" true
    (short.E.throughput_bps > long.E.throughput_bps);
  Alcotest.(check bool) "short rtt min sane" true
    (short.E.flow_min_rtt >= 0.01 && short.E.flow_min_rtt < 0.02)

let test_deterministic () =
  let r1 = E.run (quick_config ()) and r2 = E.run (quick_config ()) in
  List.iter2
    (fun a b ->
      Alcotest.(check (float 0.0)) "same throughput" a.E.throughput_bps
        b.E.throughput_bps)
    r1.E.per_flow r2.E.per_flow

(* A BBRv2 flow that joins at 8 s holds no RTprop estimate until its first
   ACK, so that ACK must not read as an expired estimate: the flow may not
   enter ProbeRTT within its first second. *)
let test_late_bbr2_no_early_probe_rtt () =
  let rate_bps = Units.mbps 20.0 and rtt = Units.ms 40.0 in
  let config =
    E.config ~seed:3 ~rate_bps
      ~buffer_bytes:(E.buffer_bytes_of_bdp ~rate_bps ~rtt ~bdp:2.0)
      ~duration:(Units.seconds 9.0)
      [
        E.flow_config ~base_rtt:rtt "cubic";
        E.flow_config ~base_rtt:rtt ~start_time:(Units.seconds 8.0) "bbr2";
      ]
  in
  let hub = Sim_engine.Trace.create () in
  let early = ref [] in
  Sim_engine.Trace.subscribe hub (fun r ->
      match r.Sim_engine.Trace.event with
      | Sim_engine.Trace.Cc_state_change { from_state; to_state = "ProbeRTT" }
        when r.flow = 1 && r.time < 9.0 ->
        early :=
          Printf.sprintf "%s->ProbeRTT at %.3f s" from_state r.time :: !early
      | _ -> ());
  ignore (E.run ~trace:hub config : E.result);
  Alcotest.(check (list string)) "no ProbeRTT before 9 s" [] (List.rev !early)

let tests =
  [
    Alcotest.test_case "utilization" `Quick test_utilization_high;
    Alcotest.test_case "throughput sums" `Quick
      test_throughput_sums_to_capacity;
    Alcotest.test_case "per-cca helpers" `Quick test_per_cca_helpers;
    Alcotest.test_case "class occupancy" `Quick test_class_occupancy_present;
    Alcotest.test_case "queuing delay bound" `Quick test_queuing_delay_bounded;
    Alcotest.test_case "warmup validation" `Quick test_warmup_validation;
    Alcotest.test_case "buffer sizing" `Quick test_buffer_bytes_of_bdp;
    Alcotest.test_case "flow metadata" `Quick test_flow_result_metadata;
    Alcotest.test_case "multi-rtt" `Quick test_multi_rtt_flows;
    Alcotest.test_case "deterministic" `Quick test_deterministic;
    Alcotest.test_case "late bbr2 skips early ProbeRTT" `Quick
      test_late_bbr2_no_early_probe_rtt;
  ]
