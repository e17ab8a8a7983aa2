(** Extension: the paper's §5 "more diverse workloads" gap.

    The model assumes long, backlogged flows. Here two long flows (1 CUBIC
    vs 1 BBR) share the bottleneck with Poisson arrivals of short CUBIC
    transfers (web-object-sized, 100–500 kB), and we measure how the
    long-flow split and the model's accuracy degrade as the short-flow load
    grows. Expectation: short flows spend their lives in slow start, acting
    as bursty uncontrolled cross-traffic that (a) takes a roughly
    load-proportional capacity share and (b) pushes the long-CUBIC/BBR
    split around without destroying its shape. *)

let mbps = 50.0
let rtt = Sim_engine.Units.ms 40.0
let mean_size_bytes = 300_000.0

type point = {
  offered_load : float;  (** Short-flow offered load as a capacity fraction. *)
  buffer_bdp : float;
  long_cubic_bps : float;
  long_bbr_bps : float;
  short_goodput_bps : float;
  model_bbr_bps : float;  (** 2-flow model, which ignores the churn. *)
  completed_short_flows : int;
}

let run_point ~mode ~offered_load ~buffer_bdp ~seed =
  let module Sim = Sim_engine.Sim in
  let rate_bps = Sim_engine.Units.mbps mbps in
  let duration = (Common.duration mode :> float)
  and warmup = (Common.warmup mode :> float) in
  let sim = Sim.create ~seed () in
  let schedule_rng = Sim_engine.Rng.split (Sim.rng sim) in
  (* Pre-draw the short-flow schedule so the dumbbell knows every flow id's
     RTT up front. *)
  let schedule =
    if offered_load <= 0.0 then [||]
    else
      Workload.Schedule.generate
        ~arrival:
          (Workload.Arrival.poisson_of_load ~load:offered_load
             ~rate_bps:(rate_bps :> float)
             ~mean_size_bytes)
        ~sizes:(Workload.Dist.Uniform { lo_bytes = 100_000; hi_bytes = 500_000 })
        ~horizon_s:duration ~rng:schedule_rng ()
  in
  let arrivals =
    Array.to_list
      (Array.map
         (fun it ->
           (it.Workload.Schedule.arrival_s, it.Workload.Schedule.size_bytes))
         schedule)
  in
  let n_short = List.length arrivals in
  let specs =
    List.init (2 + n_short) (fun i -> { Netsim.Dumbbell.flow = i; base_rtt = rtt })
  in
  let net =
    Netsim.Dumbbell.create ~sim ~rate_bps
      ~buffer_bytes:
        (Tcpflow.Experiment.buffer_bytes_of_bdp ~rate_bps ~rtt ~bdp:buffer_bdp)
      ~flows:specs ()
  in
  let mk_sender ~flow ~cca ?start_time ?data_limit_bytes () =
    let rng = Sim_engine.Rng.split (Sim.rng sim) in
    let cc = Cca.Registry.create cca ~mss:Sim_engine.Units.mss ~rng in
    Tcpflow.Sender.create ~net ~flow ~cc ?start_time ?data_limit_bytes ()
  in
  let long_cubic = mk_sender ~flow:0 ~cca:"cubic" () in
  let long_bbr = mk_sender ~flow:1 ~cca:"bbr" () in
  let shorts =
    List.mapi
      (fun i (start_time, size) ->
        mk_sender ~flow:(2 + i) ~cca:"cubic"
          ~start_time:(Sim_engine.Units.seconds start_time)
          ~data_limit_bytes:size ())
      arrivals
  in
  let at_warmup = [| 0.0; 0.0 |] in
  ignore
    (Sim.schedule sim ~delay:warmup (fun () ->
         at_warmup.(0) <- Tcpflow.Sender.delivered_bytes long_cubic;
         at_warmup.(1) <- Tcpflow.Sender.delivered_bytes long_bbr));
  Sim.run ~until:duration sim;
  let window = duration -. warmup in
  let goodput sender offset =
    (Sim_engine.Units.bits_per_sec_of_bytes
       ~bytes_per_sec:((Tcpflow.Sender.delivered_bytes sender -. offset) /. window)
      :> float)
  in
  let short_delivered =
    List.fold_left
      (fun acc s -> acc +. Tcpflow.Sender.delivered_bytes s)
      0.0 shorts
  in
  ( goodput long_cubic at_warmup.(0),
    goodput long_bbr at_warmup.(1),
    (Sim_engine.Units.bits_per_sec_of_bytes
       ~bytes_per_sec:(short_delivered /. duration)
      :> float),
    List.length (List.filter Tcpflow.Sender.completed shorts) )

(* Each point drives its own bespoke simulation (Poisson churn is not an
   [Experiment.config]), so the result cache does not apply and each point
   counts its own simulation; the grid still fans out over the ctx's
   workers. *)
let points (ctx : Common.ctx) =
  let loads =
    match ctx.mode with
    | Common.Quick -> [ 0.0; 0.1; 0.3 ]
    | Common.Full -> [ 0.0; 0.05; 0.1; 0.2; 0.3; 0.5 ]
  in
  let grid =
    List.concat_map
      (fun buffer_bdp ->
        List.map (fun offered_load -> (buffer_bdp, offered_load)) loads)
      [ 3.0; 10.0 ]
  in
  Sim_engine.Exec.map_list ~jobs:ctx.jobs
    (fun (buffer_bdp, offered_load) ->
      let params =
        Ccmodel.Params.of_paper_units ~mbps ~buffer_bdp ~rtt_ms:(Sim_engine.Units.sec_to_ms rtt)
      in
      let model_bbr_bps = (Ccmodel.Two_flow.solve params).bbr_bandwidth_bps in
      Sim_engine.Exec.note_simulation ();
      let long_cubic_bps, long_bbr_bps, short_goodput_bps, completed =
        run_point ~mode:ctx.mode ~offered_load ~buffer_bdp ~seed:5
      in
      {
        offered_load;
        buffer_bdp;
        long_cubic_bps;
        long_bbr_bps;
        short_goodput_bps;
        model_bbr_bps;
        completed_short_flows = completed;
      })
    grid

let run ctx : Common.table =
  let points = points ctx in
  {
    Common.id = "ext-short";
    title =
      "Extension: long CUBIC vs BBR with short-flow (Poisson) cross traffic";
    header =
      [ "buffer(BDP)"; "short_load"; "long_cubic"; "long_bbr"; "short_goodput";
        "model_bbr(no churn)"; "#short_done" ];
    rows =
      List.map
        (fun p ->
          [
            Common.cell p.buffer_bdp;
            Common.cell p.offered_load;
            Common.cell (Common.mbps p.long_cubic_bps);
            Common.cell (Common.mbps p.long_bbr_bps);
            Common.cell (Common.mbps p.short_goodput_bps);
            Common.cell (Common.mbps p.model_bbr_bps);
            Common.cell_int p.completed_short_flows;
          ])
        points;
    notes =
      [
        "the steady-state model ignores churn; its BBR prediction degrades \
         as the short-flow load grows (the paper's §5 caveat about diverse \
         workloads)";
      ];
  }
