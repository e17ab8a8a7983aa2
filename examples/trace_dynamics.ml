(* Tracing congestion dynamics: the classic cwnd-over-time picture.

   Races one CUBIC flow against one BBR flow in a traced experiment and
   dumps both flows' cwnd / in-flight samples as CSV (to the paths
   printed), plus a textual summary of BBR's state-machine occupancy — the
   sawtooth-vs-flat picture from the paper's §2 background.

   Run with:  dune exec examples/trace_dynamics.exe *)

module E = Tcpflow.Experiment
module Trace = Sim_engine.Trace
module Units = Sim_engine.Units
module Window = Sim_engine.Timeseries.Window

let names = [| "cubic"; "bbr" |]

let () =
  let rate_bps = Units.mbps 50.0 and rtt = Units.ms 40.0 in
  let warmup = Units.seconds 10.0 and duration = Units.seconds 60.0 in
  let config =
    E.config ~seed:7 ~warmup ~sample_period:(Units.ms 50.0) ~rate_bps
      ~buffer_bytes:(E.buffer_bytes_of_bdp ~rate_bps ~rtt ~bdp:5.0)
      ~duration
      (Array.to_list (Array.map (E.flow_config ~base_rtt:rtt) names))
  in
  (* The run emits every event into [hub]. One sink writes each flow's
     Cc_samples (one per flow every sample_period) as CSV and folds its
     cwnd into that flow's window statistics over the measurement window;
     a metrics rollup that sees only the BBR flow's records counts its
     states. *)
  let hub = Trace.create () in
  let paths =
    Array.map
      (fun name ->
        Filename.concat (Filename.get_temp_dir_name ()) (name ^ "_trace.csv"))
      names
  in
  let csvs = Array.map open_out paths in
  Array.iter
    (fun oc ->
      output_string oc
        "time,cwnd_bytes,inflight_bytes,pacing_Bps,delivered_bytes,state\n")
    csvs;
  let cwnd =
    Array.map
      (fun _ ->
        Window.create ~from_:(warmup :> float) ~until:(duration :> float))
      names
  in
  Trace.subscribe hub (fun r ->
      match r.Trace.event with
      | Trace.Cc_sample
          { cwnd_bytes; inflight_bytes; pacing_rate; delivered_bytes;
            cc_state } ->
        Printf.fprintf csvs.(r.flow) "%.6f,%.0f,%d,%s,%.0f,%s\n" r.time
          cwnd_bytes inflight_bytes
          (match pacing_rate with
          | Some rate -> Printf.sprintf "%.0f" rate
          | None -> "")
          delivered_bytes cc_state;
        Window.add cwnd.(r.flow) ~time:r.time cwnd_bytes
      | _ -> ());
  let bbr = Trace.Metrics.create () in
  Trace.subscribe hub (fun r ->
      if r.Trace.flow = 1 then Trace.Metrics.observe bbr r);
  let result = E.run ~trace:hub config in
  Array.iter close_out csvs;

  Printf.printf "cwnd traces written:\n  %s\n  %s\n\n" paths.(0) paths.(1);
  List.iter
    (fun (f : E.flow_result) ->
      let w = cwnd.(f.flow_id) in
      Printf.printf
        "%-6s cwnd min/mean/max = %6.0f / %6.0f / %6.0f bytes; goodput(10-60s) \
         = %.2f Mbps\n"
        f.flow_cca (Window.min w) (Window.mean w) (Window.max w)
        (Units.bps_to_mbps (Units.bps f.throughput_bps)))
    result.per_flow;

  Printf.printf "\nBBR state occupancy (fraction of samples):\n";
  List.iter
    (fun (state, frac) -> Printf.printf "  %-10s %5.1f%%\n" state (100.0 *. frac))
    (Trace.Metrics.summary bbr).state_occupancy;
  Printf.printf
    "\nThe CUBIC trace shows the 0.7x sawtooth of Eq. (1); BBR holds ~2x its\n\
     estimated BDP with 10-second ProbeRTT dips - the mechanics behind the\n\
     paper's model.\n"
