module F = Fluidsim.Fluid_sim

let config ?(n_cubic = 1) ?(n_bbr = 1) ?(kind = F.Bbr) ?(bdp = 5.0)
    ?(mbps = 50.0) ?(rtt = 0.04) ?(duration = 30.0) ?(sync = F.Synchronized)
    () =
  let capacity_bps = Sim_engine.Units.mbps mbps in
  let rtt = Sim_engine.Units.seconds rtt in
  let duration = Sim_engine.Units.seconds duration in
  {
    F.default_config with
    capacity_bps;
    buffer_bytes =
      Sim_engine.Units.scale bdp
        (Sim_engine.Units.bdp_bytes ~rate_bps:capacity_bps ~rtt);
    flows =
      List.init n_cubic (fun _ -> { F.kind = F.Cubic; rtt })
      @ List.init n_bbr (fun _ -> { F.kind; rtt });
    sync;
    duration;
    warmup = Sim_engine.Units.scale (1.0 /. 3.0) duration;
  }

let test_all_cubic_fills_link () =
  let r = F.run (config ~n_cubic:4 ~n_bbr:0 ()) in
  let total = Array.fold_left ( +. ) 0.0 r.F.per_flow_bps in
  Alcotest.(check bool)
    (Printf.sprintf "total ~50 Mbps (%.1f)" (total /. 1e6))
    true
    (total > 45e6 && total < 51e6)

let test_all_bbr_fills_link () =
  let r = F.run (config ~n_cubic:0 ~n_bbr:4 ()) in
  let total = Array.fold_left ( +. ) 0.0 r.F.per_flow_bps in
  Alcotest.(check bool)
    (Printf.sprintf "total ~50 Mbps (%.1f)" (total /. 1e6))
    true
    (total > 40e6 && total < 51e6)

let test_throughput_conservation () =
  let r = F.run (config ~n_cubic:3 ~n_bbr:3 ()) in
  let total = Array.fold_left ( +. ) 0.0 r.F.per_flow_bps in
  Alcotest.(check bool) "sum <= capacity" true (total <= 50e6 *. 1.01)

let test_queue_bounded_by_buffer () =
  let cfg = config ~n_cubic:2 ~n_bbr:2 ~bdp:3.0 () in
  let r = F.run cfg in
  Alcotest.(check bool) "mean queue <= buffer" true
    (r.F.mean_queue_bytes <= (cfg.F.buffer_bytes :> float) +. 1.0);
  Alcotest.(check bool) "delay consistent" true
    (Float.abs
       (r.F.mean_queuing_delay
       -. (r.F.mean_queue_bytes /. Sim_engine.Units.bytes_per_sec cfg.F.capacity_bps))
    < 1e-9)

let test_kind_helpers () =
  let r = F.run (config ~n_cubic:2 ~n_bbr:2 ()) in
  let cubic = F.mean_bps_of_kind r F.Cubic in
  let agg = F.aggregate_bps_of_kind r F.Cubic in
  Alcotest.(check (float 1.0)) "aggregate = 2 x mean" (2.0 *. cubic) agg;
  Alcotest.(check bool) "missing kind nan" true
    (Float.is_nan (F.mean_bps_of_kind r F.Bbr2))

let test_deterministic () =
  let r1 = F.run (config ()) and r2 = F.run (config ()) in
  Alcotest.(check (array (float 0.0))) "replay identical" r1.F.per_flow_bps
    r2.F.per_flow_bps

let test_seed_matters () =
  let r1 = F.run (config ()) in
  let r2 = F.run { (config ()) with F.seed = 99 } in
  Alcotest.(check bool) "different seeds differ" true
    (r1.F.per_flow_bps <> r2.F.per_flow_bps)

let test_losses_occur () =
  let r = F.run (config ~bdp:2.0 ()) in
  Alcotest.(check bool) "loss events" true (r.F.loss_events > 0)

let test_bbr_share_declines_with_buffer () =
  let share bdp =
    let r = F.run (config ~bdp ~duration:60.0 ()) in
    F.mean_bps_of_kind r F.Bbr
  in
  Alcotest.(check bool) "shallow > deep" true (share 2.0 > share 25.0)

let test_trace_collection () =
  let r =
    F.run
      {
        (config ()) with
        F.trace_period = Sim_engine.Units.seconds 0.5;
        duration = Sim_engine.Units.seconds 10.0;
        warmup = Sim_engine.Units.seconds 3.0;
      }
  in
  Alcotest.(check bool) "trace samples" true (List.length r.F.trace >= 15);
  List.iter
    (fun s ->
      Alcotest.(check int) "w per flow" 2 (Array.length s.F.t_w);
      Alcotest.(check bool) "queue >= 0" true (s.F.t_queue >= 0.0))
    r.F.trace

let test_no_trace_by_default () =
  let r = F.run (config ~duration:5.0 ()) in
  Alcotest.(check int) "no trace" 0 (List.length r.F.trace)

let test_sync_modes_run () =
  List.iter
    (fun sync ->
      let r = F.run (config ~n_cubic:4 ~n_bbr:4 ~sync ~duration:20.0 ()) in
      let total = Array.fold_left ( +. ) 0.0 r.F.per_flow_bps in
      Alcotest.(check bool) "throughput positive" true (total > 10e6))
    [ F.Synchronized; F.Desynchronized; F.Stochastic 0.3 ]

let test_bbr2_gentler_than_bbr () =
  let mean kind =
    let r =
      F.run (config ~n_cubic:3 ~n_bbr:3 ~kind ~bdp:8.0 ~duration:60.0 ())
    in
    F.mean_bps_of_kind r kind
  in
  (* BBRv2's loss-clamped in-flight bound should not beat BBRv1. *)
  Alcotest.(check bool) "bbr2 <= bbr x 1.2" true
    (mean F.Bbr2 <= 1.2 *. mean F.Bbr)

let test_validation () =
  (match F.run { (config ()) with F.dt = Sim_engine.Units.seconds 0.0 } with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "dt 0 should raise");
  (match F.run { (config ()) with F.flows = [] } with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "no flows should raise");
  match F.run { (config ()) with F.warmup = Sim_engine.Units.seconds 100.0 } with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "warmup >= duration should raise"

(* NaN passes a bare [x <= 0.0] test, so each bound must be stated so that
   NaN fails it. A zero capacity or a negative buffer would run, on
   nonsense. *)
let test_validation_nonsense () =
  let module U = Sim_engine.Units in
  let base = config () in
  let expect msg c =
    Alcotest.check_raises msg (Invalid_argument ("Fluid_sim.run: " ^ msg))
      (fun () -> ignore (F.run c))
  in
  let duration = "duration must be finite and > 0"
  and capacity = "capacity must be finite and > 0"
  and buffer = "buffer must be finite and > 0"
  and rtt = "flow rtt must be finite and > 0"
  and warmup = "need 0 <= warmup < duration"
  and stochastic = "Stochastic p must be in [0, 1]" in
  expect duration { base with F.duration = U.seconds nan };
  expect duration { base with F.duration = U.seconds infinity };
  expect capacity { base with F.capacity_bps = U.bps nan };
  expect capacity { base with F.capacity_bps = U.bps 0.0 };
  expect buffer { base with F.buffer_bytes = U.bytes (-1.0) };
  expect buffer { base with F.buffer_bytes = U.bytes nan };
  let flow kind rtt =
    { base with F.flows = [ { F.kind; rtt = U.seconds rtt } ] }
  in
  expect rtt (flow F.Cubic nan);
  expect rtt (flow F.Bbr 0.0);
  expect warmup { base with F.warmup = U.seconds (-1.0) };
  expect warmup { base with F.warmup = U.seconds nan };
  expect "dt must be finite and > 0" { base with F.dt = U.seconds nan };
  expect stochastic { base with F.sync = F.Stochastic 1.5 };
  expect stochastic { base with F.sync = F.Stochastic nan };
  (* The bounds themselves are valid. *)
  List.iter
    (fun p -> ignore (F.run { base with F.sync = F.Stochastic p }))
    [ 0.0; 1.0 ]

let test_multi_rtt_short_flow_advantage_cubic () =
  (* All-CUBIC with mixed RTTs: the shorter-RTT flow should win. *)
  let capacity_bps = Sim_engine.Units.mbps 50.0 in
  let cfg =
    {
      F.default_config with
      capacity_bps;
      buffer_bytes =
        Sim_engine.Units.scale 5.0
          (Sim_engine.Units.bdp_bytes ~rate_bps:capacity_bps
             ~rtt:(Sim_engine.Units.ms 10.0));
      flows =
        [
          { F.kind = F.Cubic; rtt = Sim_engine.Units.ms 10.0 };
          { F.kind = F.Cubic; rtt = Sim_engine.Units.ms 50.0 };
        ];
      duration = Sim_engine.Units.seconds 40.0;
      warmup = Sim_engine.Units.seconds 10.0;
    }
  in
  let r = F.run cfg in
  Alcotest.(check bool) "short RTT wins" true
    (r.F.per_flow_bps.(0) > r.F.per_flow_bps.(1))

let tests =
  [
    Alcotest.test_case "all-cubic fills link" `Quick test_all_cubic_fills_link;
    Alcotest.test_case "all-bbr fills link" `Quick test_all_bbr_fills_link;
    Alcotest.test_case "conservation" `Quick test_throughput_conservation;
    Alcotest.test_case "queue bounded" `Quick test_queue_bounded_by_buffer;
    Alcotest.test_case "kind helpers" `Quick test_kind_helpers;
    Alcotest.test_case "deterministic" `Quick test_deterministic;
    Alcotest.test_case "seed matters" `Quick test_seed_matters;
    Alcotest.test_case "losses occur" `Quick test_losses_occur;
    Alcotest.test_case "bbr declines with buffer" `Quick
      test_bbr_share_declines_with_buffer;
    Alcotest.test_case "trace collection" `Quick test_trace_collection;
    Alcotest.test_case "no trace by default" `Quick test_no_trace_by_default;
    Alcotest.test_case "sync modes run" `Quick test_sync_modes_run;
    Alcotest.test_case "bbr2 gentler" `Quick test_bbr2_gentler_than_bbr;
    Alcotest.test_case "validation" `Quick test_validation;
    Alcotest.test_case "validation rejects nan and nonsense" `Quick
      test_validation_nonsense;
    Alcotest.test_case "multi-rtt cubic" `Quick
      test_multi_rtt_short_flow_advantage_cubic;
  ]
