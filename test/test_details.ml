(* Focused corner-case tests that deepen coverage of behaviours the broader
   suites exercise only implicitly. *)

let mss = 1500

(* --- BBR gain cycling --- *)

let test_bbr_gain_cycle_phases () =
  let cc =
    Cca.Bbr.make ~variant:Cca.Bbr.V1 ~mss ~rng:(Sim_engine.Rng.create 3) ()
  in
  let _ =
    Cca_driver.feed_rounds cc ~rounds:10 ~per_round:10 ~rtt:0.04 ~rate:1e6
      ~start_now:0.0 ~start_round:0
  in
  cc.Cca.Cc_types.on_ack
    (Cca_driver.ack ~now:1.0 ~rtt:0.04 ~rate:1e6 ~inflight:1500 ~round:11 ());
  Alcotest.(check string) "probe bw" "ProbeBW" (cc.Cca.Cc_types.state ());
  (* Walk many rounds and collect pacing gains; the 8-phase cycle must show
     both the 1.25 up-probe and the 0.75 drain. *)
  let gains = Hashtbl.create 4 in
  let now = ref 1.0 and round = ref 11 in
  for _ = 1 to 40 do
    now := !now +. 0.05;
    incr round;
    cc.Cca.Cc_types.on_ack
      (Cca_driver.ack ~now:!now ~rtt:0.04 ~rate:1e6 ~inflight:90000
         ~round:!round ~round_start:true ());
    let rate = cc.Cca.Cc_types.pacing_rate () in
    if not (Float.is_nan rate) then
      Hashtbl.replace gains (Float.round (rate /. 1e4)) true
  done;
  (* rates are gain x btlbw(1e6): expect keys near 125, 75 and 100. *)
  Alcotest.(check bool) "up-probe seen" true (Hashtbl.mem gains 125.0);
  Alcotest.(check bool) "drain phase seen" true (Hashtbl.mem gains 75.0);
  Alcotest.(check bool) "cruise seen" true (Hashtbl.mem gains 100.0)

let test_bbr_drain_gain_below_one () =
  let cc =
    Cca.Bbr.make ~variant:Cca.Bbr.V1 ~mss ~rng:(Sim_engine.Rng.create 3) ()
  in
  (* Reach the bandwidth plateau with in-flight well above one BDP
     (40 kB at 1e6 B/s x 40 ms) so Drain cannot exit immediately. *)
  let _ =
    Cca_driver.feed_rounds cc ~rounds:10 ~per_round:40 ~rtt:0.04 ~rate:1e6
      ~start_now:0.0 ~start_round:0
  in
  Alcotest.(check string) "drain" "Drain" (cc.Cca.Cc_types.state ());
  let rate = cc.Cca.Cc_types.pacing_rate () in
  if Float.is_nan rate then Alcotest.fail "expected pacing"
  else Alcotest.(check bool) "pacing < btlbw" true (rate < 1e6)

(* --- CUBIC epoch restart --- *)

let test_cubic_new_wmax_after_higher_loss () =
  let cc = Cca.Cubic.make ~mss () in
  for _ = 1 to 100 do
    cc.Cca.Cc_types.on_ack (Cca_driver.ack ())
  done;
  cc.Cca.Cc_types.on_loss (Cca_driver.loss ~now:1.0 ());
  let after_first = cc.Cca.Cc_types.cwnd_bytes () in
  (* Grow well past the old W_max, then lose again: the new back-off target
     must reflect the higher peak. *)
  let now = ref 1.0 and round = ref 0 in
  for _ = 1 to 400 do
    now := !now +. 0.04;
    incr round;
    for _ = 1 to 10 do
      cc.Cca.Cc_types.on_ack (Cca_driver.ack ~now:!now ~round:!round ())
    done
  done;
  let peak = cc.Cca.Cc_types.cwnd_bytes () in
  cc.Cca.Cc_types.on_loss (Cca_driver.loss ~now:!now ());
  let after_second = cc.Cca.Cc_types.cwnd_bytes () in
  Alcotest.(check bool) "peak grew" true (peak > after_first);
  Alcotest.(check (float 1.0)) "0.7 x new peak" (0.7 *. peak) after_second

(* --- Ware model: N dependence --- *)

let test_ware_more_bbr_flows_higher_share () =
  let params =
    Ccmodel.Params.of_paper_units ~mbps:100.0 ~buffer_bdp:10.0 ~rtt_ms:40.0
  in
  let f n =
    Ccmodel.Ware.bbr_fraction ~params ~n_bbr:n
      ~duration:(Sim_engine.Units.seconds 120.0)
  in
  Alcotest.(check bool) "increasing in N" true (f 10 > f 1)

(* --- NE predictor: all-BBR case --- *)

let test_ne_all_bbr_when_buffer_tiny () =
  (* At ~1 BDP the model starves CUBIC, so BBR keeps its advantage at every
     mix and the NE is all-BBR (paper's Case 1). *)
  let params =
    Ccmodel.Params.of_paper_units ~mbps:100.0 ~buffer_bdp:1.0 ~rtt_ms:40.0
  in
  let nb =
    Ccmodel.Ne.equilibrium_bbr_flows params ~n:10
      ~sync:Ccmodel.Multi_flow.Synchronized
  in
  Alcotest.(check (float 0.0)) "all BBR" 10.0 nb

(* --- Multi-flow degenerates to two-flow --- *)

let test_multi_flow_one_cubic_bounds_coincide () =
  (* With N_c = 1 the de-synchronized gamma equals 0.7, so both bounds
     collapse onto the 2-flow model. *)
  let params =
    Ccmodel.Params.of_paper_units ~mbps:50.0 ~buffer_bdp:10.0 ~rtt_ms:40.0
  in
  let iv = Ccmodel.Multi_flow.per_flow_bbr_interval params ~n_cubic:1 ~n_bbr:1 in
  Alcotest.(check (float 1e-6)) "bounds equal" iv.lower_bbr_per_flow_bps
    iv.upper_bbr_per_flow_bps;
  let two = (Ccmodel.Two_flow.solve params).bbr_bandwidth_bps in
  Alcotest.(check (float 1e-6)) "equals 2-flow model" two
    iv.lower_bbr_per_flow_bps

(* --- Sender: Vegas and Copa through the full stack under RED --- *)

let test_delay_based_ccas_under_red () =
  List.iter
    (fun cca ->
      let rate_bps = Sim_engine.Units.mbps 10.0 in
      let r =
        Tcpflow.Experiment.run
          (Tcpflow.Experiment.config ~aqm:Tcpflow.Experiment.Red_default
             ~warmup:(Sim_engine.Units.seconds 2.0) ~rate_bps
             ~buffer_bytes:
               (Tcpflow.Experiment.buffer_bytes_of_bdp ~rate_bps
                  ~rtt:(Sim_engine.Units.ms 20.0) ~bdp:4.0)
             ~duration:(Sim_engine.Units.seconds 8.0)
             [
               Tcpflow.Experiment.flow_config
                 ~base_rtt:(Sim_engine.Units.ms 20.0) cca;
             ])
      in
      let goodput = Tcpflow.Experiment.mean_throughput_of_cca r cca in
      Alcotest.(check bool)
        (Printf.sprintf "%s alone under RED > 5 Mbps (%.1f)" cca
           (goodput /. 1e6))
        true (goodput > 5e6))
    [ "vegas"; "copa"; "cubic" ]

(* --- Fluid trace sanity --- *)

let test_fluid_trace_bbr_fields () =
  let module F = Fluidsim.Fluid_sim in
  let capacity_bps = Sim_engine.Units.mbps 50.0 in
  let r =
    F.run
      {
        F.default_config with
        capacity_bps;
        buffer_bytes =
          Sim_engine.Units.scale 5.0
            (Sim_engine.Units.bdp_bytes ~rate_bps:capacity_bps
               ~rtt:(Sim_engine.Units.ms 40.0));
        flows =
          [
            { F.kind = F.Cubic; rtt = Sim_engine.Units.ms 40.0 };
            { F.kind = F.Bbr; rtt = Sim_engine.Units.ms 40.0 };
          ];
        duration = Sim_engine.Units.seconds 20.0;
        warmup = Sim_engine.Units.seconds 5.0;
        trace_period = Sim_engine.Units.seconds 1.0;
      }
  in
  List.iter
    (fun s ->
      (* BBR's rtprop estimate must never fall below the base RTT. *)
      Alcotest.(check bool) "rtprop >= base rtt" true
        (s.F.t_rtprop.(1) >= 0.04 -. 1e-12);
      Alcotest.(check bool) "btlbw bounded by capacity x2" true
        (s.F.t_btlbw.(1) <= 2.0 *. Sim_engine.Units.bytes_per_sec capacity_bps))
    r.F.trace

(* --- Stats edge: percentile of singleton --- *)

let test_percentile_singleton () =
  Alcotest.(check (float 0.0)) "p37 of singleton" 5.0
    (Sim_engine.Stats.percentile [ 5.0 ] ~p:37.0)

let tests =
  [
    Alcotest.test_case "bbr gain cycle" `Quick test_bbr_gain_cycle_phases;
    Alcotest.test_case "bbr drain gain" `Quick test_bbr_drain_gain_below_one;
    Alcotest.test_case "cubic new wmax" `Quick
      test_cubic_new_wmax_after_higher_loss;
    Alcotest.test_case "ware N dependence" `Quick
      test_ware_more_bbr_flows_higher_share;
    Alcotest.test_case "NE all-bbr tiny buffer" `Quick
      test_ne_all_bbr_when_buffer_tiny;
    Alcotest.test_case "multi-flow degenerate" `Quick
      test_multi_flow_one_cubic_bounds_coincide;
    Alcotest.test_case "delay CCAs under RED" `Quick
      test_delay_based_ccas_under_red;
    Alcotest.test_case "fluid trace bbr fields" `Quick
      test_fluid_trace_bbr_fields;
    Alcotest.test_case "percentile singleton" `Quick test_percentile_singleton;
  ]
