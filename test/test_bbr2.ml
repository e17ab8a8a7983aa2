let mss = 1500

let make () =
  Cca.Bbr.make ~variant:Cca.Bbr.V2 ~mss ~rng:(Sim_engine.Rng.create 1) ()

let to_probe_bw cc =
  let _ =
    Cca_driver.feed_rounds cc ~rounds:10 ~per_round:10 ~rtt:0.04 ~rate:1e6
      ~start_now:0.0 ~start_round:0
  in
  cc.Cca.Cc_types.on_ack
    (Cca_driver.ack ~now:1.0 ~rtt:0.04 ~rate:1e6 ~inflight:1500 ~round:11 ())

let test_starts_in_startup () =
  let cc = make () in
  Alcotest.(check string) "startup" "Startup" (cc.Cca.Cc_types.state ())

let test_reaches_probe_bw () =
  let cc = make () in
  to_probe_bw cc;
  Alcotest.(check string) "probe bw" "ProbeBW" (cc.Cca.Cc_types.state ())

let test_cruise_loss_tolerated () =
  (* A small loss outside a probing phase must not collapse the window. *)
  let cc = make () in
  to_probe_bw cc;
  let before = cc.Cca.Cc_types.cwnd_bytes () in
  (* Register the round's delivered bytes, then a tiny loss: < 2%. *)
  cc.Cca.Cc_types.on_ack
    (Cca_driver.ack ~now:1.05 ~rtt:0.04 ~rate:1e6 ~inflight:40000 ~round:12
       ~round_start:true ~acked:150000 ());
  cc.Cca.Cc_types.on_loss (Cca_driver.loss ~now:1.06 ~lost:1500 ());
  Alcotest.(check bool) "window kept" true
    (cc.Cca.Cc_types.cwnd_bytes () >= 0.9 *. before)

let test_heavy_loss_cuts_when_probing () =
  let cc = make () in
  (* Startup counts as probing: a >2% lossy round cuts inflight_hi and ends
     Startup. *)
  let _ =
    Cca_driver.feed_rounds cc ~rounds:3 ~per_round:10 ~rtt:0.04 ~rate:1e6
      ~start_now:0.0 ~start_round:0
  in
  cc.Cca.Cc_types.on_loss (Cca_driver.loss ~now:0.2 ~lost:30000 ~inflight:30000 ());
  (* Drive to ProbeBW: cwnd should now be bounded by inflight_hi. *)
  cc.Cca.Cc_types.on_ack
    (Cca_driver.ack ~now:0.3 ~rtt:0.04 ~rate:1e6 ~inflight:1500 ~round:4 ());
  let cwnd = cc.Cca.Cc_types.cwnd_bytes () in
  (* 0.7 * max(30000, bdp=40000) = 28000; cruise headroom 0.85 -> ~23.8kB;
     in any case well under the unbounded 80 kB. *)
  Alcotest.(check bool)
    (Printf.sprintf "bounded (%.0f)" cwnd)
    true (cwnd < 40_000.0)

let test_hi_recovers_by_probing () =
  let cc = make () in
  to_probe_bw cc;
  (* Cut the bound hard. *)
  cc.Cca.Cc_types.on_ack
    (Cca_driver.ack ~now:1.05 ~rtt:0.04 ~rate:1e6 ~inflight:40000 ~round:12
       ~round_start:true ~acked:1500 ());
  (* Force a probing phase by iterating rounds; eventually pacing_gain>1. *)
  cc.Cca.Cc_types.on_loss
    (Cca_driver.loss ~now:1.06 ~lost:15000 ~inflight:40000 ());
  let low = cc.Cca.Cc_types.cwnd_bytes () in
  let _ =
    Cca_driver.feed_rounds cc ~rounds:60 ~per_round:10 ~rtt:0.045 ~rate:1e6
      ~start_now:1.1 ~start_round:13
  in
  let recovered = cc.Cca.Cc_types.cwnd_bytes () in
  Alcotest.(check bool)
    (Printf.sprintf "recovers upward (%.0f -> %.0f)" low recovered)
    true
    (recovered >= low)

(* Feed rounds one at a time, recording when (if ever) ProbeRTT is entered
   and the smallest cwnd seen while in it. BBRv2 exits ProbeRTT quickly
   (its floor is 0.5 BDP, easily satisfied), so we must observe the state
   during the feed rather than at the end. *)
let scan_for_probe_rtt cc ~rounds ~rtt ~start_now ~start_round =
  let entered = ref false and min_cwnd_seen = ref infinity in
  let now = ref start_now and round = ref start_round in
  for _ = 1 to rounds do
    incr round;
    now := !now +. rtt;
    for i = 0 to 9 do
      cc.Cca.Cc_types.on_ack
        (Cca_driver.ack ~now:!now ~rtt ~rate:1e6 ~round:!round
           ~round_start:(i = 0) ~inflight:15000 ());
      if cc.Cca.Cc_types.state () = "ProbeRTT" then begin
        entered := true;
        min_cwnd_seen := Float.min !min_cwnd_seen (cc.Cca.Cc_types.cwnd_bytes ())
      end
    done
  done;
  (!entered, !min_cwnd_seen)

let test_probe_rtt_interval_5s () =
  let cc = make () in
  to_probe_bw cc;
  (* > 5 s without a new minimum triggers ProbeRTT (vs 10 s for BBRv1). *)
  let entered, _ =
    scan_for_probe_rtt cc ~rounds:130 ~rtt:0.05 ~start_now:1.0 ~start_round:12
  in
  Alcotest.(check bool) "probe rtt entered" true entered

let test_probe_rtt_floor_is_half_bdp () =
  let cc = make () in
  to_probe_bw cc;
  let entered, min_cwnd =
    scan_for_probe_rtt cc ~rounds:130 ~rtt:0.05 ~start_now:1.0 ~start_round:12
  in
  Alcotest.(check bool) "entered" true entered;
  (* 0.5 x BDP with btlbw ~1e6 and rtprop ~0.04: ~20 kB, well above BBRv1's
     4-packet (6 kB) floor. *)
  Alcotest.(check bool)
    (Printf.sprintf "gentler ProbeRTT (%.0f)" min_cwnd)
    true (min_cwnd >= 10_000.0)

let test_name () =
  let cc = make () in
  Alcotest.(check string) "name" "bbr2" cc.Cca.Cc_types.name

let tests =
  [
    Alcotest.test_case "starts in Startup" `Quick test_starts_in_startup;
    Alcotest.test_case "reaches ProbeBW" `Quick test_reaches_probe_bw;
    Alcotest.test_case "cruise loss tolerated" `Quick test_cruise_loss_tolerated;
    Alcotest.test_case "heavy probing loss cuts" `Quick
      test_heavy_loss_cuts_when_probing;
    Alcotest.test_case "hi recovers" `Quick test_hi_recovers_by_probing;
    Alcotest.test_case "ProbeRTT at 5s" `Quick test_probe_rtt_interval_5s;
    Alcotest.test_case "ProbeRTT floor 0.5 BDP" `Quick
      test_probe_rtt_floor_is_half_bdp;
    Alcotest.test_case "name" `Quick test_name;
  ]
