(* The telemetry layer: ring-buffer semantics, deterministic serialization,
   agreement between the event stream and the sender's own counters, and
   byte-identical trace files regardless of invocation or worker count. *)

module Sim = Sim_engine.Sim
module Units = Sim_engine.Units
module Trace = Sim_engine.Trace
module E = Tcpflow.Experiment

let record ~time ~flow event = { Trace.time; flow; event }

let test_ring_buffer () =
  let hub = Trace.create ~ring_capacity:4 () in
  for i = 0 to 9 do
    Trace.emit hub ~time:(float_of_int i) ~flow:0
      (Trace.Send { seq = i; size = 1500; retransmit = false })
  done;
  Alcotest.(check int) "emitted" 10 (Trace.emitted hub);
  Alcotest.(check int) "overwritten" 6 (Trace.overwritten hub);
  let seqs =
    List.map
      (fun r ->
        match r.Trace.event with Trace.Send { seq; _ } -> seq | _ -> -1)
      (Trace.records hub)
  in
  Alcotest.(check (list int)) "last four, in order" [ 6; 7; 8; 9 ] seqs

let test_sinks_see_everything () =
  let hub = Trace.create ~ring_capacity:2 () in
  let seen = ref 0 in
  Trace.subscribe hub (fun _ -> incr seen);
  for i = 0 to 9 do
    Trace.emit hub ~time:0.0 ~flow:0
      (Trace.Send { seq = i; size = 1500; retransmit = false })
  done;
  Alcotest.(check int) "sink count unaffected by ring size" 10 !seen

let test_serialization_deterministic () =
  let r =
    record ~time:1.25 ~flow:3
      (Trace.Ack
         { seq = 7; rtt_sample = 0.04; delivered_bytes = 1.5e4;
           inflight_bytes = 3000 })
  in
  Alcotest.(check string) "jsonl"
    "{\"t\":1.25,\"flow\":3,\"ev\":\"ack\",\"seq\":7,\"rtt\":0.04,\"delivered\":15000,\"inflight\":3000}"
    (Trace.to_jsonl r);
  let q = record ~time:0.5 ~flow:Trace.link_scope
      (Trace.Queue_sample { queue_bytes = 4500; queue_packets = 3 })
  in
  Alcotest.(check string) "link scope"
    "{\"t\":0.5,\"flow\":-1,\"ev\":\"queue_sample\",\"queue_bytes\":4500,\"queue_packets\":3}"
    (Trace.to_jsonl q)

(* One CUBIC flow through a 1-BDP bottleneck: enough drops to exercise
   every loss path. The stream's event counts must agree exactly with the
   sender's own counters and the queue's drop counter. *)
let traced_lossy_run () =
  let sim = Sim.create ~seed:11 () in
  let rate_bps = Units.mbps 10.0 in
  let rtt = Units.seconds 0.02 in
  let buffer_bytes =
    max Units.mss
      (Units.bytes_to_int (Units.scale 1.0 (Units.bdp_bytes ~rate_bps ~rtt)))
  in
  let hub = Trace.create () in
  let all = ref [] in
  Trace.subscribe hub (fun r -> all := r :: !all);
  let net =
    Netsim.Dumbbell.create ~trace:hub ~sim ~rate_bps ~buffer_bytes
      ~flows:[ { Netsim.Dumbbell.flow = 0; base_rtt = rtt } ] ()
  in
  let cc =
    Cca.Registry.create "cubic" ~mss:Units.mss
      ~rng:(Sim_engine.Rng.split (Sim.rng sim))
  in
  let sender = Tcpflow.Sender.create ~net ~flow:0 ~cc ~trace:hub () in
  Sim.run ~until:10.0 sim;
  (net, sender, List.rev !all)

let count p records = List.length (List.filter p records)

let test_events_match_counters () =
  let net, sender, records = traced_lossy_run () in
  let retx =
    count
      (fun r ->
        match r.Trace.event with
        | Trace.Send { retransmit = true; _ } -> true
        | _ -> false)
      records
  in
  let losses =
    count
      (fun r ->
        match r.Trace.event with Trace.Seg_lost _ -> true | _ -> false)
      records
  in
  let drops =
    count
      (fun r -> match r.Trace.event with Trace.Drop _ -> true | _ -> false)
      records
  in
  let recoveries =
    count
      (fun r ->
        match r.Trace.event with Trace.Recovery_enter _ -> true | _ -> false)
      records
  in
  Alcotest.(check bool) "losses occurred" true (losses > 0);
  Alcotest.(check int) "retransmit events = counter"
    (Tcpflow.Sender.retransmitted_segments sender)
    retx;
  Alcotest.(check int) "seg_lost events = counter"
    (Tcpflow.Sender.lost_segments sender)
    losses;
  Alcotest.(check int) "drop events = queue drops"
    (Netsim.Droptail_queue.drops (Netsim.Dumbbell.queue net))
    drops;
  Alcotest.(check bool) "recovery entered" true (recoveries > 0)

let test_event_times_monotone () =
  let _, _, records = traced_lossy_run () in
  let rec ok = function
    | a :: (b :: _ as rest) -> a.Trace.time <= b.Trace.time && ok rest
    | _ -> true
  in
  Alcotest.(check bool) "non-decreasing timestamps" true (ok records)

(* Two seeded flows through a traced experiment: the Metrics rollup of
   each flow's records must reproduce a direct count of that flow's
   Cc_sample states exactly (same fractions, same sort). *)
let test_metrics_agree_with_cc_samples () =
  let rate_bps = Units.mbps 10.0 and rtt = Units.ms 20.0 in
  let config =
    E.config ~seed:7 ~sample_period:(Units.ms 10.0)
      ~warmup:(Units.seconds 1.0) ~rate_bps ~buffer_bytes:50_000
      ~duration:(Units.seconds 5.0)
      [ E.flow_config ~base_rtt:rtt "cubic"; E.flow_config ~base_rtt:rtt "bbr" ]
  in
  let metrics = Array.init 2 (fun _ -> Trace.Metrics.create ()) in
  let states = Array.make 2 [] in
  let hub = Trace.create ~ring_capacity:1 () in
  Trace.subscribe hub (fun r ->
      let flow = r.Trace.flow in
      if flow <> Trace.link_scope then begin
        Trace.Metrics.observe metrics.(flow) r;
        match r.Trace.event with
        | Trace.Cc_sample { cc_state; _ } ->
          states.(flow) <- cc_state :: states.(flow)
        | _ -> ()
      end);
  ignore (E.run ~trace:hub config);
  Array.iteri
    (fun flow m ->
      let samples = states.(flow) in
      let total = float_of_int (List.length samples) in
      let counted =
        List.map
          (fun state ->
            ( state,
              float_of_int
                (List.length (List.filter (String.equal state) samples))
              /. total ))
          (List.sort_uniq String.compare samples)
        |> List.sort (fun (sa, a) (sb, b) ->
               match Float.compare b a with 0 -> String.compare sa sb | c -> c)
      in
      Alcotest.(check bool)
        (Printf.sprintf "flow %d visits several states" flow)
        true
        (List.length counted > 1);
      Alcotest.(check (list (pair string (float 0.0))))
        (Printf.sprintf "flow %d occupancy" flow)
        counted (Trace.Metrics.summary m).Trace.Metrics.state_occupancy)
    metrics

(* A traced experiment emits one Cc_sample per static flow per sample
   period, from time 0, in flow order at each instant. The count is pinned
   for a fixed 2-flow run: 2 s at 10 ms gives 200 per flow. *)
let test_experiment_cc_samples_per_flow () =
  let rate_bps = Units.mbps 10.0 and rtt = Units.ms 20.0 in
  let config =
    E.config ~sample_period:(Units.ms 10.0) ~warmup:(Units.seconds 0.5)
      ~rate_bps
      ~buffer_bytes:(E.buffer_bytes_of_bdp ~rate_bps ~rtt ~bdp:2.0)
      ~duration:(Units.seconds 2.0)
      [ E.flow_config ~base_rtt:rtt "cubic"; E.flow_config ~base_rtt:rtt "bbr" ]
  in
  let hub = Trace.create ~ring_capacity:1 () in
  let samples = ref [] in
  Trace.subscribe hub (fun r ->
      match r.Trace.event with
      | Trace.Cc_sample _ -> samples := (r.Trace.time, r.Trace.flow) :: !samples
      | _ -> ());
  let traced = E.run ~trace:hub config in
  let samples = List.rev !samples in
  let of_flow f = List.filter (fun (_, flow) -> flow = f) samples in
  Alcotest.(check int) "flow 0 samples" 200 (List.length (of_flow 0));
  Alcotest.(check int) "flow 1 samples" 200 (List.length (of_flow 1));
  Alcotest.(check (float 0.0)) "first sample at 0" 0.0 (fst (List.hd samples));
  let rec paired = function
    | (t0, 0) :: (t1, 1) :: rest -> Float.equal t0 t1 && paired rest
    | [] -> true
    | _ -> false
  in
  Alcotest.(check bool) "flow order at each instant" true (paired samples);
  Alcotest.(check (list (float 0.0))) "tracing leaves results unchanged"
    (List.map (fun f -> f.E.throughput_bps) (E.run config).E.per_flow)
    (List.map (fun f -> f.E.throughput_bps) traced.E.per_flow)

(* Trace files written through Runs.eval must be byte-identical across
   invocations and worker counts: same names, same contents. *)
let eval_traced ~jobs configs =
  let dir = Filename.temp_file "trace" "" in
  Sys.remove dir;
  let ctx =
    Experiments.Common.ctx ~jobs ~trace_dir:dir Experiments.Common.Quick
  in
  ignore (Experiments.Runs.eval ctx configs);
  let files = List.sort compare (Array.to_list (Sys.readdir dir)) in
  let contents =
    List.map
      (fun f ->
        let ic = open_in_bin (Filename.concat dir f) in
        let s =
          Fun.protect
            ~finally:(fun () -> close_in_noerr ic)
            (fun () -> really_input_string ic (in_channel_length ic))
        in
        Sys.remove (Filename.concat dir f);
        (f, s))
      files
  in
  Sys.rmdir dir;
  contents

let test_trace_files_deterministic () =
  let configs =
    List.map
      (fun seed ->
        Experiments.Runs.config ~mode:Experiments.Common.Quick
          ~duration:(Units.seconds 2.0) ~warmup:(Units.seconds 0.5) ~mbps:10.0
          ~rtt_ms:20.0 ~buffer_bdp:2.0
          ~flows:[ E.flow_config "cubic"; E.flow_config "bbr" ]
          ~seed ())
      [ 1; 2 ]
  in
  let sequential = eval_traced ~jobs:1 configs in
  let again = eval_traced ~jobs:1 configs in
  let parallel = eval_traced ~jobs:4 configs in
  Alcotest.(check int) "two jsonl + two metrics" 4 (List.length sequential);
  Alcotest.(check (list (pair string string)))
    "repeat invocation identical" sequential again;
  Alcotest.(check (list (pair string string)))
    "jobs=4 identical to jobs=1" sequential parallel

let test_metrics_summary_line () =
  let records =
    [
      record ~time:0.0 ~flow:0
        (Trace.Send { seq = 0; size = 1500; retransmit = false });
      record ~time:0.1 ~flow:0
        (Trace.Send { seq = 0; size = 1500; retransmit = true });
      record ~time:0.2 ~flow:0
        (Trace.Seg_lost { seq = 0; via_timeout = false });
      record ~time:0.3 ~flow:Trace.link_scope
        (Trace.Queue_sample { queue_bytes = 12500; queue_packets = 9 });
    ]
  in
  let s = Trace.Metrics.of_records ~rate_bps:1e6 records in
  Alcotest.(check int) "sends" 2 s.Trace.Metrics.sends;
  Alcotest.(check int) "retransmits" 1 s.Trace.Metrics.retransmits;
  Alcotest.(check (float 1e-9)) "retransmit rate" 0.5
    s.Trace.Metrics.retransmit_rate;
  (* 12500 B at 1 Mbps = 0.1 s of queue delay, at every quantile. *)
  List.iter
    (fun (_, v) -> Alcotest.(check (float 1e-9)) "queue delay" 0.1 v)
    s.Trace.Metrics.queue_delay_quantiles;
  let line = Trace.Metrics.summary_line s in
  let contains sub =
    let n = String.length line and m = String.length sub in
    let rec go i = i + m <= n && (String.sub line i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "line mentions sends=2" true (contains "sends=2");
  Alcotest.(check bool) "line mentions p99" true
    (contains "p99_queue_delay=0.1")

let tests =
  [
    Alcotest.test_case "ring buffer wraps" `Quick test_ring_buffer;
    Alcotest.test_case "sinks see everything" `Quick test_sinks_see_everything;
    Alcotest.test_case "serialization" `Quick test_serialization_deterministic;
    Alcotest.test_case "experiment cc_samples per flow" `Quick
      test_experiment_cc_samples_per_flow;
    Alcotest.test_case "events match counters" `Quick
      test_events_match_counters;
    Alcotest.test_case "event times monotone" `Quick test_event_times_monotone;
    Alcotest.test_case "metrics = cc_sample occupancy" `Quick
      test_metrics_agree_with_cc_samples;
    Alcotest.test_case "trace files deterministic" `Quick
      test_trace_files_deterministic;
    Alcotest.test_case "metrics summary" `Quick test_metrics_summary_line;
  ]
