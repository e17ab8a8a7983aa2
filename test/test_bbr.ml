let mss = 1500

let make () =
  Cca.Bbr.make ~variant:Cca.Bbr.V1 ~mss ~rng:(Sim_engine.Rng.create 1) ()

(* Drive the flow at a steady delivery rate so the state machine advances:
   [rate] bytes/s, [rtt] seconds, rounds advance per call batch. *)
let drive cc ~rounds ~rate ~rtt ~start_now ~start_round =
  Cca_driver.feed_rounds cc ~rounds ~per_round:10 ~rtt ~rate ~start_now
    ~start_round

let test_starts_in_startup () =
  let cc = make () in
  Alcotest.(check string) "startup" "Startup" (cc.Cca.Cc_types.state ())

let test_startup_exits_on_plateau () =
  let cc = make () in
  (* constant delivery rate -> bandwidth plateau -> Drain then ProbeBW *)
  let _ = drive cc ~rounds:10 ~rate:1e6 ~rtt:0.04 ~start_now:0.0 ~start_round:0 in
  let state = cc.Cca.Cc_types.state () in
  Alcotest.(check bool)
    (Printf.sprintf "left startup (%s)" state)
    true
    (state = "Drain" || state = "ProbeBW")

let test_reaches_probe_bw () =
  let cc = make () in
  (* After the plateau, low inflight lets Drain finish. *)
  let _ = drive cc ~rounds:10 ~rate:1e6 ~rtt:0.04 ~start_now:0.0 ~start_round:0 in
  cc.Cca.Cc_types.on_ack
    (Cca_driver.ack ~now:1.0 ~rtt:0.04 ~rate:1e6 ~inflight:1500 ~round:11 ());
  Alcotest.(check string) "probe bw" "ProbeBW" (cc.Cca.Cc_types.state ())

let test_cwnd_is_2bdp_in_probe_bw () =
  let cc = make () in
  let _ = drive cc ~rounds:10 ~rate:1e6 ~rtt:0.04 ~start_now:0.0 ~start_round:0 in
  cc.Cca.Cc_types.on_ack
    (Cca_driver.ack ~now:1.0 ~rtt:0.04 ~rate:1e6 ~inflight:1500 ~round:11 ());
  (* btlbw = 1e6 B/s, rtprop = 0.04 -> BDP = 40 kB -> cwnd = 80 kB *)
  Alcotest.(check (float 2000.0)) "2x BDP" 80_000.0
    (cc.Cca.Cc_types.cwnd_bytes ())

let test_pacing_rate_follows_btlbw () =
  let cc = make () in
  let _ = drive cc ~rounds:10 ~rate:1e6 ~rtt:0.04 ~start_now:0.0 ~start_round:0 in
  cc.Cca.Cc_types.on_ack
    (Cca_driver.ack ~now:1.0 ~rtt:0.04 ~rate:1e6 ~inflight:1500 ~round:11 ());
  let rate = cc.Cca.Cc_types.pacing_rate () in
  if Float.is_nan rate then Alcotest.fail "expected pacing"
  else
    (* gain cycling: rate in [0.75, 1.25] x btlbw *)
    Alcotest.(check bool)
      (Printf.sprintf "pacing %f" rate)
      true
      (rate >= 0.74e6 && rate <= 1.26e6)

let test_loss_agnostic () =
  let cc = make () in
  let _ = drive cc ~rounds:10 ~rate:1e6 ~rtt:0.04 ~start_now:0.0 ~start_round:0 in
  let before = cc.Cca.Cc_types.cwnd_bytes () in
  cc.Cca.Cc_types.on_loss (Cca_driver.loss ~now:1.0 ());
  Alcotest.(check (float 0.0)) "unchanged by loss" before
    (cc.Cca.Cc_types.cwnd_bytes ())

let test_probe_rtt_after_10s () =
  let cc = make () in
  let now, round =
    drive cc ~rounds:10 ~rate:1e6 ~rtt:0.04 ~start_now:0.0 ~start_round:0
  in
  (* Keep RTT samples slightly above the initial minimum for > 10 s. *)
  let _ =
    drive cc ~rounds:260 ~rate:1e6 ~rtt:0.05 ~start_now:now ~start_round:round
  in
  Alcotest.(check string) "probe rtt" "ProbeRTT" (cc.Cca.Cc_types.state ())

let test_probe_rtt_cwnd_floor () =
  let cc = make () in
  let now, round =
    drive cc ~rounds:10 ~rate:1e6 ~rtt:0.04 ~start_now:0.0 ~start_round:0
  in
  let _ =
    drive cc ~rounds:260 ~rate:1e6 ~rtt:0.05 ~start_now:now ~start_round:round
  in
  Alcotest.(check (float 0.0)) "4 mss during probe" 6000.0
    (cc.Cca.Cc_types.cwnd_bytes ())

let test_probe_rtt_exits () =
  let cc = make () in
  let now, round =
    drive cc ~rounds:10 ~rate:1e6 ~rtt:0.04 ~start_now:0.0 ~start_round:0
  in
  let now, round =
    drive cc ~rounds:260 ~rate:1e6 ~rtt:0.05 ~start_now:now ~start_round:round
  in
  Alcotest.(check string) "in probe rtt" "ProbeRTT" (cc.Cca.Cc_types.state ());
  (* Deliver low-inflight ACKs over > 200 ms so ProbeRTT can complete. *)
  let t = ref now and r = ref round in
  for _ = 1 to 10 do
    t := !t +. 0.05;
    incr r;
    cc.Cca.Cc_types.on_ack
      (Cca_driver.ack ~now:!t ~rtt:0.041 ~rate:1e6 ~inflight:3000 ~round:!r
         ~round_start:true ())
  done;
  Alcotest.(check string) "back to probe bw" "ProbeBW" (cc.Cca.Cc_types.state ())

let test_rtprop_adopts_on_expiry () =
  (* After ProbeRTT, the rtprop estimate should reflect recent (larger)
     samples rather than the stale minimum: cwnd grows accordingly. *)
  let cc = make () in
  let now, round =
    drive cc ~rounds:10 ~rate:1e6 ~rtt:0.04 ~start_now:0.0 ~start_round:0
  in
  let now, round =
    drive cc ~rounds:260 ~rate:1e6 ~rtt:0.08 ~start_now:now ~start_round:round
  in
  let t = ref now and r = ref round in
  for _ = 1 to 10 do
    t := !t +. 0.08;
    incr r;
    cc.Cca.Cc_types.on_ack
      (Cca_driver.ack ~now:!t ~rtt:0.08 ~rate:1e6 ~inflight:3000 ~round:!r
         ~round_start:true ())
  done;
  (* cwnd should now be ~2 x 1e6 x 0.08 = 160 kB, not 80 kB *)
  Alcotest.(check bool)
    (Printf.sprintf "cwnd reflects new rtprop (%.0f)"
       (cc.Cca.Cc_types.cwnd_bytes ()))
    true
    (cc.Cca.Cc_types.cwnd_bytes () > 120_000.0)

let test_app_limited_samples_only_raise () =
  let cc = make () in
  let _ = drive cc ~rounds:10 ~rate:1e6 ~rtt:0.04 ~start_now:0.0 ~start_round:0 in
  let before = cc.Cca.Cc_types.cwnd_bytes () in
  (* A low app-limited sample must not shrink the bandwidth estimate. *)
  cc.Cca.Cc_types.on_ack
    (Cca_driver.ack ~now:1.0 ~rtt:0.04 ~rate:1e3 ~app_limited:true
       ~inflight:1500 ~round:11 ());
  Alcotest.(check bool) "not reduced" true
    (cc.Cca.Cc_types.cwnd_bytes () >= before *. 0.99)

let test_mode_of_alias () =
  let cc = make () in
  Alcotest.(check string) "alias" (cc.Cca.Cc_types.state ())
    (Cca.Bbr.mode_of cc)

let tests =
  [
    Alcotest.test_case "starts in Startup" `Quick test_starts_in_startup;
    Alcotest.test_case "startup exit on plateau" `Quick
      test_startup_exits_on_plateau;
    Alcotest.test_case "reaches ProbeBW" `Quick test_reaches_probe_bw;
    Alcotest.test_case "cwnd = 2xBDP" `Quick test_cwnd_is_2bdp_in_probe_bw;
    Alcotest.test_case "pacing follows btlbw" `Quick
      test_pacing_rate_follows_btlbw;
    Alcotest.test_case "loss agnostic" `Quick test_loss_agnostic;
    Alcotest.test_case "ProbeRTT after 10s" `Quick test_probe_rtt_after_10s;
    Alcotest.test_case "ProbeRTT cwnd floor" `Quick test_probe_rtt_cwnd_floor;
    Alcotest.test_case "ProbeRTT exits" `Quick test_probe_rtt_exits;
    Alcotest.test_case "rtprop adoption" `Quick test_rtprop_adopts_on_expiry;
    Alcotest.test_case "app-limited samples" `Quick
      test_app_limited_samples_only_raise;
    Alcotest.test_case "mode_of" `Quick test_mode_of_alias;
  ]
