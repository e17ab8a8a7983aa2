(* Plugging a custom congestion-control algorithm into the simulator.

   We implement a deliberately simple AIMD controller ("aimd-2x": additive
   increase of 2 MSS per RTT, halve on loss), register it under a name, and
   race it against CUBIC — exactly the workflow for studying a new CCA's
   incentive properties with this library.

   Run with:  dune exec examples/custom_cca.exe *)

let make_aimd ~mss () =
  let mssf = float_of_int mss in
  let cwnd = ref (10.0 *. mssf) in
  let ssthresh = ref infinity in
  {
    Cca.Cc_types.name = "aimd-2x";
    on_ack =
      (fun ack ->
        let acked = float_of_int ack.Cca.Cc_types.acked_bytes in
        if !cwnd < !ssthresh then cwnd := !cwnd +. acked
        else cwnd := !cwnd +. (2.0 *. mssf *. acked /. !cwnd));
    on_loss =
      (fun loss ->
        ssthresh := Float.max (!cwnd /. 2.0) (2.0 *. mssf);
        cwnd := if loss.Cca.Cc_types.via_timeout then mssf else !ssthresh);
    (* This controller ignores sends; the sender never calls the shared
       no-op, so a send costs nothing here. *)
    on_send = Cca.Cc_types.ignore_send;
    cwnd_bytes = (fun () -> Float.max !cwnd (2.0 *. mssf));
    pacing_rate = (fun () -> nan);
    state = (fun () -> if !cwnd < !ssthresh then "SlowStart" else "AIMD");
  }

let () =
  (* Register so experiments can refer to it by name. *)
  Cca.Registry.register "aimd-2x" (fun ~mss ~rng:_ -> make_aimd ~mss ());

  let rate_bps = Sim_engine.Units.mbps 40.0 in
  let rtt = Sim_engine.Units.ms 30.0 in
  Printf.printf "aimd-2x vs CUBIC on 40 Mbps / 30 ms, varying buffer:\n\n";
  Printf.printf "%12s %14s %14s\n" "buffer(BDP)" "aimd-2x(Mbps)" "cubic(Mbps)";
  List.iter
    (fun bdp ->
      let config =
        Tcpflow.Experiment.config ~warmup:(Sim_engine.Units.seconds 10.0)
          ~rate_bps
          ~buffer_bytes:
            (Tcpflow.Experiment.buffer_bytes_of_bdp ~rate_bps ~rtt ~bdp)
          ~duration:(Sim_engine.Units.seconds 45.0)
          [
            Tcpflow.Experiment.flow_config ~base_rtt:rtt "aimd-2x";
            Tcpflow.Experiment.flow_config ~base_rtt:rtt "cubic";
          ]
      in
      let result = Tcpflow.Experiment.run config in
      let get name =
        Sim_engine.Units.bps_to_mbps
          (Sim_engine.Units.bps
             (Tcpflow.Experiment.mean_throughput_of_cca result name))
      in
      Printf.printf "%12.1f %14.2f %14.2f\n%!" bdp (get "aimd-2x")
        (get "cubic"))
    [ 1.0; 3.0; 8.0; 16.0 ];
  Printf.printf
    "\nCUBIC's cubic window growth beats linear AIMD on this high-BDP path \
     in deep buffers,\nwhile shallow buffers keep both near their fair \
     share.\n"
