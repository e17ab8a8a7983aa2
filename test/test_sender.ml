(* Integration tests of the transport layer over small simulated networks. *)

module Sim = Sim_engine.Sim
module Units = Sim_engine.Units

let setup ~rate_mbps ~rtt ~buffer_bdp ~ccas =
  let sim = Sim.create ~seed:11 () in
  let rate_bps = Units.mbps rate_mbps in
  let rtt = Units.seconds rtt in
  let buffer_bytes =
    max Units.mss
      (Units.bytes_to_int
         (Units.scale buffer_bdp (Units.bdp_bytes ~rate_bps ~rtt)))
  in
  let specs =
    List.mapi (fun i _ -> { Netsim.Dumbbell.flow = i; base_rtt = rtt }) ccas
  in
  let net =
    Netsim.Dumbbell.create ~sim ~rate_bps ~buffer_bytes ~flows:specs ()
  in
  let senders =
    List.mapi
      (fun i name ->
        let rng = Sim_engine.Rng.split (Sim.rng sim) in
        let cc = Cca.Registry.create name ~mss:Units.mss ~rng in
        Tcpflow.Sender.create ~net ~flow:i ~cc ())
      ccas
  in
  (sim, net, senders)

let test_single_flow_fills_link () =
  let sim, _, senders = setup ~rate_mbps:10.0 ~rtt:0.02 ~buffer_bdp:2.0 ~ccas:[ "cubic" ] in
  Sim.run ~until:10.0 sim;
  let sender = List.hd senders in
  let goodput =
    Tcpflow.Sender.delivered_bytes sender *. 8.0 /. 10.0 /. 1e6
  in
  Alcotest.(check bool)
    (Printf.sprintf "goodput ~10 Mbps (%.2f)" goodput)
    true
    (goodput > 8.5 && goodput < 10.5)

let test_goodput_bounded_by_capacity () =
  let sim, _, senders =
    setup ~rate_mbps:10.0 ~rtt:0.02 ~buffer_bdp:3.0 ~ccas:[ "cubic"; "bbr" ]
  in
  Sim.run ~until:10.0 sim;
  let total =
    List.fold_left
      (fun acc sender -> acc +. Tcpflow.Sender.delivered_bytes sender)
      0.0 senders
  in
  Alcotest.(check bool) "sum <= capacity" true
    (total *. 8.0 /. 10.0 <= 10.0e6 *. 1.02)

let test_min_rtt_matches_base () =
  let sim, _, senders = setup ~rate_mbps:10.0 ~rtt:0.02 ~buffer_bdp:2.0 ~ccas:[ "cubic" ] in
  Sim.run ~until:5.0 sim;
  let sender = List.hd senders in
  (* min RTT = base rtt + one serialization time (1.2 ms at 10 Mbps). *)
  let expected =
    0.02
    +. (Units.transmission_time ~rate_bps:(Units.mbps 10.0) ~bytes:Units.mss
         :> float)
  in
  Alcotest.(check (float 2e-3)) "min rtt" expected
    (Tcpflow.Sender.min_rtt_observed sender)

let test_losses_detected_and_retransmitted () =
  (* A 1-BDP buffer with CUBIC guarantees drops; retransmissions must keep
     delivery contiguous (delivered grows far past the buffer size). *)
  let sim, net, senders = setup ~rate_mbps:10.0 ~rtt:0.02 ~buffer_bdp:1.0 ~ccas:[ "cubic" ] in
  Sim.run ~until:10.0 sim;
  let sender = List.hd senders in
  Alcotest.(check bool) "drops occurred" true
    (Netsim.Droptail_queue.drops (Netsim.Dumbbell.queue net) > 0);
  Alcotest.(check bool) "losses detected" true
    (Tcpflow.Sender.lost_segments sender > 0);
  Alcotest.(check bool) "retransmissions sent" true
    (Tcpflow.Sender.retransmitted_segments sender > 0);
  Alcotest.(check bool) "goodput continued" true
    (Tcpflow.Sender.delivered_bytes sender > 1e6)

let test_rounds_advance () =
  let sim, _, senders = setup ~rate_mbps:10.0 ~rtt:0.02 ~buffer_bdp:2.0 ~ccas:[ "cubic" ] in
  Sim.run ~until:2.0 sim;
  let sender = List.hd senders in
  (* ~2s / ~25ms inflated RTT: tens of rounds. *)
  Alcotest.(check bool) "rounds counted" true (Tcpflow.Sender.rounds sender > 20)

let test_srtt_sane () =
  let sim, _, senders = setup ~rate_mbps:10.0 ~rtt:0.02 ~buffer_bdp:2.0 ~ccas:[ "cubic" ] in
  Sim.run ~until:5.0 sim;
  let sender = List.hd senders in
  let srtt = Tcpflow.Sender.srtt sender in
  (* Queue holds at most 2 BDP: RTT in [base, base + 2 x 20ms + tx]. *)
  Alcotest.(check bool)
    (Printf.sprintf "srtt in range (%.3f)" srtt)
    true
    (srtt >= 0.02 && srtt <= 0.08)

let test_inflight_bounded_by_cwnd () =
  let sim, _, senders = setup ~rate_mbps:10.0 ~rtt:0.02 ~buffer_bdp:2.0 ~ccas:[ "bbr" ] in
  let sender = List.hd senders in
  let violations = ref 0 in
  let rec check () =
    let cwnd = (Tcpflow.Sender.cc sender).Cca.Cc_types.cwnd_bytes () in
    if float_of_int (Tcpflow.Sender.inflight_bytes sender) > cwnd +. 1500.0
    then incr violations;
    ignore (Sim.schedule sim ~delay:0.01 check)
  in
  check ();
  Sim.run ~until:5.0 sim;
  Alcotest.(check int) "inflight <= cwnd (+1 pkt)" 0 !violations

let test_deterministic_given_seed () =
  let run () =
    let sim, _, senders = setup ~rate_mbps:10.0 ~rtt:0.02 ~buffer_bdp:2.0 ~ccas:[ "cubic"; "bbr" ] in
    Sim.run ~until:5.0 sim;
    List.map Tcpflow.Sender.delivered_bytes senders
  in
  Alcotest.(check (list (float 0.0))) "identical replay" (run ()) (run ())

let test_bbr_flow_works_alone () =
  let sim, _, senders = setup ~rate_mbps:10.0 ~rtt:0.02 ~buffer_bdp:2.0 ~ccas:[ "bbr" ] in
  Sim.run ~until:10.0 sim;
  let goodput =
    Tcpflow.Sender.delivered_bytes (List.hd senders) *. 8.0 /. 10.0 /. 1e6
  in
  Alcotest.(check bool)
    (Printf.sprintf "bbr alone ~10 Mbps (%.2f)" goodput)
    true
    (goodput > 8.0 && goodput < 10.5)

let test_reno_and_vivace_work () =
  List.iter
    (fun name ->
      let sim, _, senders = setup ~rate_mbps:10.0 ~rtt:0.02 ~buffer_bdp:2.0 ~ccas:[ name ] in
      Sim.run ~until:8.0 sim;
      let goodput =
        Tcpflow.Sender.delivered_bytes (List.hd senders) *. 8.0 /. 8.0 /. 1e6
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s alone gets >60%% of link (%.2f)" name goodput)
        true (goodput > 6.0))
    [ "reno"; "vivace"; "copa" ]

let test_start_time_honored () =
  let sim = Sim.create ~seed:3 () in
  let rate_bps = Units.mbps 10.0 in
  let net =
    Netsim.Dumbbell.create ~sim ~rate_bps ~buffer_bytes:100_000
      ~flows:[ { Netsim.Dumbbell.flow = 0; base_rtt = Units.ms 20.0 } ] ()
  in
  let cc = Cca.Registry.create "cubic" ~mss:Units.mss ~rng:(Sim_engine.Rng.create 1) in
  let sender = Tcpflow.Sender.create ~net ~flow:0 ~cc ~start_time:(Units.seconds 2.0) () in
  Sim.run ~until:1.9 sim;
  Alcotest.(check (float 0.0)) "nothing before start" 0.0
    (Tcpflow.Sender.delivered_bytes sender);
  Sim.run ~until:4.0 sim;
  Alcotest.(check bool) "data after start" true
    (Tcpflow.Sender.delivered_bytes sender > 0.0)

(* Regression: rto_interval used to return a constant, so a dead path
   retransmitted at a fixed cadence forever. Black-holing the receiver must
   produce exponentially backed-off RTO firings; restoring it must reset
   the backoff on the first ACK. *)
let test_rto_exponential_backoff () =
  let sim = Sim.create ~seed:5 () in
  let rate_bps = Units.mbps 10.0 in
  let rtt = Units.seconds 0.02 in
  let hub = Sim_engine.Trace.create () in
  let rto_fires = ref [] in
  Sim_engine.Trace.subscribe hub (fun r ->
      match r.Sim_engine.Trace.event with
      | Sim_engine.Trace.Rto_fire { interval; backoff; _ } ->
        rto_fires := (interval, backoff) :: !rto_fires
      | _ -> ());
  let net =
    Netsim.Dumbbell.create ~sim ~rate_bps ~buffer_bytes:100_000
      ~flows:[ { Netsim.Dumbbell.flow = 0; base_rtt = rtt } ] ()
  in
  let cc =
    Cca.Registry.create "cubic" ~mss:Units.mss
      ~rng:(Sim_engine.Rng.split (Sim.rng sim))
  in
  let sender = Tcpflow.Sender.create ~net ~flow:0 ~cc ~trace:hub () in
  Sim.run ~until:1.0 sim;
  Alcotest.(check int) "no backoff while healthy" 0
    (Tcpflow.Sender.rto_backoff sender);
  (* Black-hole the flow: its packets vanish at the receiver, so no ACKs. *)
  let receiver =
    match Netsim.Dumbbell.receiver net ~flow:0 with
    | Some r -> r
    | None -> Alcotest.fail "receiver installed at create time"
  in
  Netsim.Dumbbell.set_receiver net ~flow:0 (fun _ -> ());
  Sim.run ~until:12.0 sim;
  let fires = List.rev !rto_fires in
  Alcotest.(check bool)
    (Printf.sprintf "several RTO firings (%d)" (List.length fires))
    true
    (List.length fires >= 3);
  Alcotest.(check bool) "backoff grew" true
    (Tcpflow.Sender.rto_backoff sender >= 3);
  List.iteri
    (fun i (_, backoff) ->
      Alcotest.(check int) "backoff stages count up" i backoff)
    fires;
  (* No ACK arrives between firings, so srtt is frozen (Karn) and each
     interval is exactly double the previous one until the 60 s cap. *)
  let rec doubled = function
    | (a, _) :: ((b, _) :: _ as rest) ->
      (b >= 60.0 || abs_float (b -. (2.0 *. a)) < 1e-9) && doubled rest
    | _ -> true
  in
  Alcotest.(check bool) "intervals double" true (doubled fires);
  Netsim.Dumbbell.set_receiver net ~flow:0 receiver;
  let delivered_before = Tcpflow.Sender.delivered_bytes sender in
  Sim.run ~until:80.0 sim;
  Alcotest.(check int) "backoff reset by ACK" 0
    (Tcpflow.Sender.rto_backoff sender);
  Alcotest.(check bool) "flow recovered" true
    (Tcpflow.Sender.delivered_bytes sender > delivered_before)

(* Regression: inflight_bytes drifted after an RTO (the timeout zeroed it,
   then late ACKs decremented it again). The per-segment accounting must
   stay exact through loss, timeout, and the late ACKs that follow. The
   second input is a 30 BDP path at 100 Mbps: its window reaches thousands
   of segments, far past the segment ring's initial capacity, so the ring
   grows (several times, with the window wrapped around the ring's end)
   under the same audit. *)
let test_inflight_accounting_exact () =
  List.iter
    (fun (rate_mbps, rtt, buffer_bdp, hole_at, heal_at, until, min_window) ->
      let sim, net, senders =
        setup ~rate_mbps ~rtt ~buffer_bdp ~ccas:[ "cubic" ]
      in
      let sender = List.hd senders in
      let peak_window = ref 0 in
      let rec audit () =
        Tcpflow.Sender.check_inflight_invariant sender;
        peak_window :=
          max !peak_window
            (Tcpflow.Sender.next_seq sender - Tcpflow.Sender.cum_ack sender);
        ignore (Sim.schedule sim ~delay:0.01 audit)
      in
      audit ();
      Sim.run ~until:hole_at sim;
      (* Force an RTO with ACKs still in flight, then let them land. *)
      let receiver =
        match Netsim.Dumbbell.receiver net ~flow:0 with
        | Some r -> r
        | None -> Alcotest.fail "receiver installed at create time"
      in
      Netsim.Dumbbell.set_receiver net ~flow:0 (fun _ -> ());
      Sim.run ~until:heal_at sim;
      Alcotest.(check bool) "RTO fired in the black hole" true
        (Tcpflow.Sender.rto_backoff sender > 0);
      Netsim.Dumbbell.set_receiver net ~flow:0 receiver;
      Sim.run ~until sim;
      Alcotest.(check bool) "losses exercised" true
        (Tcpflow.Sender.lost_segments sender > 0);
      Alcotest.(check bool)
        (Printf.sprintf "window reached %d segments (%d)" min_window
           !peak_window)
        true
        (!peak_window >= min_window);
      Tcpflow.Sender.check_inflight_invariant sender)
    [
      (10.0, 0.02, 1.0, 2.0, 6.0, 10.0, 0);
      (100.0, 0.04, 30.0, 3.0, 8.0, 12.0, 2048);
    ]

let test_inflight_zero_when_completed () =
  let sim = Sim.create ~seed:9 () in
  let rate_bps = Units.mbps 10.0 in
  let net =
    Netsim.Dumbbell.create ~sim ~rate_bps ~buffer_bytes:20_000
      ~flows:[ { Netsim.Dumbbell.flow = 0; base_rtt = Units.ms 20.0 } ] ()
  in
  let cc =
    Cca.Registry.create "cubic" ~mss:Units.mss
      ~rng:(Sim_engine.Rng.split (Sim.rng sim))
  in
  let sender =
    Tcpflow.Sender.create ~net ~flow:0 ~cc ~data_limit_bytes:300_000 ()
  in
  Sim.run ~until:30.0 sim;
  Alcotest.(check bool) "flow completed" true (Tcpflow.Sender.completed sender);
  Tcpflow.Sender.check_inflight_invariant sender;
  Alcotest.(check int) "nothing left in flight" 0
    (Tcpflow.Sender.inflight_bytes sender)

(* Reno, CUBIC, BBR, Copa and Vegas set [on_send] to the shared
   [Cc_types.ignore_send], which the sender skips. Any other [on_send] must
   still run once per transmission, retransmissions included: a counting
   closure over CUBIC, on a 1 BDP path that loses segments, sees every
   fresh segment and every retransmission. *)
let test_on_send_per_transmission () =
  let sim = Sim.create ~seed:11 () in
  let rate_bps = Units.mbps 10.0 in
  let rtt = Units.seconds 0.02 in
  let net =
    Netsim.Dumbbell.create ~sim ~rate_bps
      ~buffer_bytes:(Units.bytes_to_int (Units.bdp_bytes ~rate_bps ~rtt))
      ~flows:[ { Netsim.Dumbbell.flow = 0; base_rtt = rtt } ] ()
  in
  let calls = ref 0 in
  let cc =
    Cca.Registry.create "cubic" ~mss:Units.mss
      ~rng:(Sim_engine.Rng.split (Sim.rng sim))
  in
  let cc =
    {
      cc with
      Cca.Cc_types.on_send = (fun ~now:_ ~inflight_bytes:_ -> incr calls);
    }
  in
  let sender = Tcpflow.Sender.create ~net ~flow:0 ~cc () in
  Sim.run ~until:10.0 sim;
  let retransmitted = Tcpflow.Sender.retransmitted_segments sender in
  Alcotest.(check bool) "segments retransmitted" true (retransmitted > 0);
  Alcotest.(check int) "one call per fresh segment and retransmission"
    (Tcpflow.Sender.next_seq sender + retransmitted)
    !calls

(* A fresh no-op [on_send] is not the sentinel, so the sender calls it;
   calling it or skipping the sentinel must not change a result byte. *)
let test_fresh_no_op_on_send () =
  let variant = "cubic-fresh-on-send" in
  Cca.Registry.register variant (fun ~mss ~rng ->
      {
        (Cca.Registry.create "cubic" ~mss ~rng) with
        Cca.Cc_types.on_send = (fun ~now:_ ~inflight_bytes:_ -> ());
      });
  let run cca =
    let rate_bps = Units.mbps 10.0 and rtt = Units.ms 20.0 in
    Tcpflow.Experiment.run
      (Tcpflow.Experiment.config ~warmup:(Units.seconds 1.0) ~rate_bps
         ~buffer_bytes:
           (Tcpflow.Experiment.buffer_bytes_of_bdp ~rate_bps ~rtt ~bdp:1.0)
         ~duration:(Units.seconds 5.0)
         (List.init 2 (fun _ ->
              Tcpflow.Experiment.flow_config ~base_rtt:rtt cca)))
  in
  (* The variant's runs name it; rename it so only behaviour is compared. *)
  let as_cubic (r : Tcpflow.Experiment.result) =
    let cubic name = if String.equal name variant then "cubic" else name in
    let classes = List.map (fun (c, v) -> (cubic c, v)) in
    {
      r with
      config =
        {
          r.config with
          flows =
            List.map
              (fun (f : Tcpflow.Experiment.flow_config) ->
                { f with cca = cubic f.cca })
              r.config.flows;
        };
      per_flow =
        List.map
          (fun (f : Tcpflow.Experiment.flow_result) ->
            { f with flow_cca = cubic f.flow_cca })
          r.per_flow;
      class_mean_bytes = classes r.class_mean_bytes;
      class_min_bytes = classes r.class_min_bytes;
      class_max_bytes = classes r.class_max_bytes;
    }
  in
  let digest r =
    (* simlint: allow R2 *)
    Digest.to_hex (Digest.string (Marshal.to_string r []))
  in
  let plain = run "cubic" in
  Alcotest.(check bool) "segments lost" true (plain.drops > 0);
  Alcotest.(check string) "same result bytes" (digest plain)
    (digest (as_cubic (run variant)))

let tests =
  [
    Alcotest.test_case "single flow fills link" `Quick
      test_single_flow_fills_link;
    Alcotest.test_case "goodput bounded" `Quick test_goodput_bounded_by_capacity;
    Alcotest.test_case "min rtt" `Quick test_min_rtt_matches_base;
    Alcotest.test_case "loss recovery" `Quick
      test_losses_detected_and_retransmitted;
    Alcotest.test_case "rounds advance" `Quick test_rounds_advance;
    Alcotest.test_case "srtt sane" `Quick test_srtt_sane;
    Alcotest.test_case "inflight <= cwnd" `Quick test_inflight_bounded_by_cwnd;
    Alcotest.test_case "deterministic" `Quick test_deterministic_given_seed;
    Alcotest.test_case "bbr alone" `Quick test_bbr_flow_works_alone;
    Alcotest.test_case "other ccas alone" `Quick test_reno_and_vivace_work;
    Alcotest.test_case "start time" `Quick test_start_time_honored;
    Alcotest.test_case "rto exponential backoff" `Quick
      test_rto_exponential_backoff;
    Alcotest.test_case "inflight accounting exact" `Quick
      test_inflight_accounting_exact;
    Alcotest.test_case "inflight zero at completion" `Quick
      test_inflight_zero_when_completed;
    Alcotest.test_case "on_send once per transmission" `Quick
      test_on_send_per_transmission;
    Alcotest.test_case "fresh no-op on_send changes no byte" `Quick
      test_fresh_no_op_on_send;
  ]
