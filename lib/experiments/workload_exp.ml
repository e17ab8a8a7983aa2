(** The workload-layer experiment, the paper's §5 "more diverse
    workloads" gap: two long flows (1 CUBIC vs 1 BBR) under an open-loop
    population of web-object-sized short flows at offered loads from 0 to
    80% of capacity.

    It runs the first-class workload path — [Tcpflow.Experiment.config]
    with a [workload] field, [Tcpflow.Churn] slot reuse, FCT completion
    records — and reports the flow-completion-time distribution the
    datacenter literature reports (FCT percentiles, size-binned mean
    slowdown), the long-flow split under churn, and, next to it, the
    paper's 2-flow model, which assumes no churn. Runs go through
    {!Runs.eval}, so results are cached, traced and audited like every
    other packet run, and byte-identical across [--jobs]. *)

module E = Tcpflow.Experiment
module Units = Sim_engine.Units

let mbps = 50.0
let rtt = Units.ms 40.0
let sizes = Workload.Dist.web_objects
let seed = 7

let loads mode =
  match mode with
  | Common.Quick -> [ 0.0; 0.2; 0.5; 0.8 ]
  | Common.Full -> [ 0.0; 0.1; 0.2; 0.3; 0.4; 0.5; 0.6; 0.7; 0.8 ]

let buffers = [ 3.0; 10.0 ]

let config ~mode ~load ~buffer_bdp =
  let rate_bps = Units.mbps mbps in
  let workload =
    if load <= 0.0 then None
    else
      Some
        {
          E.wl_arrival =
            Workload.Arrival.poisson_of_load ~load
              ~rate_bps:(rate_bps :> float)
              ~mean_size_bytes:(Workload.Dist.mean_bytes sizes);
          wl_sizes = sizes;
          wl_cca = "cubic";
          wl_rtt = rtt;
        }
  in
  E.config ~seed ~warmup:(Common.warmup mode) ?workload ~rate_bps
    ~buffer_bytes:(E.buffer_bytes_of_bdp ~rate_bps ~rtt ~bdp:buffer_bdp)
    ~duration:(Common.duration mode)
    [ E.flow_config "cubic"; E.flow_config "bbr" ]

type point = {
  buffer_bdp : float;
  load : float;
  long_cubic_bps : float;
  long_bbr_bps : float;
  arrived : int;
  completed : int;
  fct_p : (float * float) list;  (** (percentile, seconds) *)
  slowdown_bins : float array;  (** per {!Ccmodel.Fairness.default_size_bounds} *)
  utilization : float;
  model_bbr_bps : float;  (** 2-flow model, which ignores the churn. *)
  short_goodput_bps : float;  (** Completed transfers over the whole run. *)
}

let point_of_result ~buffer_bdp ~load (r : E.result) =
  let fcts = List.map (fun c -> c.E.cp_fct) r.completions in
  let ideal size_bytes =
    Ccmodel.Fairness.ideal_fct ~rtt_s:(rtt :> float)
      ~rate_bps:(Units.mbps mbps :> float)
      ~size_bytes
  in
  {
    buffer_bdp;
    load;
    long_cubic_bps = E.mean_throughput_of_cca r "cubic";
    long_bbr_bps = E.mean_throughput_of_cca r "bbr";
    arrived = r.workload_arrived;
    completed = r.workload_completed;
    fct_p = Ccmodel.Fairness.fct_percentiles fcts;
    slowdown_bins =
      Ccmodel.Fairness.binned_mean_slowdown ~ideal
        (List.map (fun c -> (c.E.cp_size, c.E.cp_fct)) r.completions);
    utilization = r.utilization;
    model_bbr_bps =
      (Ccmodel.Two_flow.solve
         (Ccmodel.Params.of_paper_units ~mbps ~buffer_bdp
            ~rtt_ms:(Units.sec_to_ms rtt)))
        .bbr_bandwidth_bps;
    short_goodput_bps =
      (Units.bits_per_sec_of_bytes
         ~bytes_per_sec:
           (r.workload_delivered_bytes /. (r.config.duration :> float))
        :> float);
  }

let points (ctx : Common.ctx) =
  let grid =
    List.concat_map
      (fun buffer_bdp ->
        List.map (fun load -> (buffer_bdp, load)) (loads ctx.mode))
      buffers
  in
  let results =
    Runs.eval ctx
      (List.map
         (fun (buffer_bdp, load) -> config ~mode:ctx.mode ~load ~buffer_bdp)
         grid)
  in
  List.map2
    (fun (buffer_bdp, load) r -> point_of_result ~buffer_bdp ~load r)
    grid results

let run ctx : Common.table =
  let points = points ctx in
  {
    Common.id = "workload";
    title = "Long CUBIC vs BBR under open-loop web-object churn (FCTs)";
    header =
      [ "buffer(BDP)"; "load"; "long_cubic"; "long_bbr"; "#arrived"; "#done";
        "p50_fct(s)"; "p95_fct(s)"; "p99_fct(s)"; "sd_small"; "sd_mid";
        "sd_large"; "util"; "model_bbr(no churn)"; "short_goodput" ];
    rows =
      List.map
        (fun p ->
          List.concat
            [
              [
                Common.cell p.buffer_bdp;
                Common.cell p.load;
                Common.cell (Common.mbps p.long_cubic_bps);
                Common.cell (Common.mbps p.long_bbr_bps);
                Common.cell_int p.arrived;
                Common.cell_int p.completed;
              ];
              List.map (fun (_, v) -> Common.cell v) p.fct_p;
              Array.to_list (Array.map Common.cell p.slowdown_bins);
              [
                Common.cell p.utilization;
                Common.cell (Common.mbps p.model_bbr_bps);
                Common.cell (Common.mbps p.short_goodput_bps);
              ];
            ])
        points;
    notes =
      [
        "slowdown = FCT / (RTT + size/rate), mean per size bin (<100 kB, \
         100 kB-1 MB, >=1 MB); short flows run CUBIC and arrive as an \
         open-loop Poisson process over the web-object size mixture";
        "model_bbr(no churn) is the paper's 2-flow model at the same link \
         and buffer, which assumes no churn; short_goodput counts the bytes \
         of completed short transfers only, over the whole run";
      ];
  }
