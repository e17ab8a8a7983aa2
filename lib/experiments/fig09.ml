(** Figure 9(a-f): predicted vs observed Nash Equilibria over {50,100} Mbps
    x {20,40,80} ms, buffers up to 50 BDP.

    Predicted: the model's Nash region (Eq. 25 under both sync bounds).
    Observed: NE of packet-simulator payoffs, located by bisection on the
    fair-share crossing plus an exact neighbourhood check (the paper's §4.4
    methodology under the §4.1 symmetry reduction). Quick mode uses 20
    flows and a coarse buffer grid so the whole suite stays fast; full mode
    uses the paper's 50 flows. Both are normalized by n in the summary
    notes, since the paper shows the region is scale-free in BDP units. *)

let flows_of_mode = function Common.Quick -> 20 | Common.Full -> 50

type point = {
  mbps : float;
  rtt_ms : float;
  buffer_bdp : float;
  n : int;
  predicted_sync : float;  (** # CUBIC at NE, synchronized bound. *)
  predicted_desync : float;
  observed : int list;  (** # CUBIC at observed NE(s). *)
}

let settings mode =
  match mode with
  | Common.Quick ->
    [ (50.0, 40.0); (50.0, 80.0); (100.0, 20.0); (100.0, 40.0) ]
  | Common.Full ->
    [ (50.0, 20.0); (50.0, 40.0); (50.0, 80.0);
      (100.0, 20.0); (100.0, 40.0); (100.0, 80.0) ]

let buffers mode =
  match mode with
  | Common.Quick -> [ 2.0; 10.0; 40.0 ]
  | Common.Full -> [ 1.0; 2.0; 3.0; 5.0; 8.0; 12.0; 18.0; 25.0; 35.0; 50.0 ]

(* NE of the packet-simulated game, as BBR counts. Quick mode trims the
   per-payoff run to 60 s (25 s warm-up) to keep the sweep tractable.
   The bisection is adaptive, so the ctx should be sequential: callers
   parallelise across grid points instead (see [points]). *)
let observed_ne ~(ctx : Common.ctx) ~mbps ~rtt_ms ~buffer_bdp ~other ~n =
  let duration, warmup =
    match ctx.mode with
    | Common.Quick -> (Sim_engine.Units.seconds 60.0, Sim_engine.Units.seconds 25.0)
    | Common.Full -> (Sim_engine.Units.seconds 120.0, Sim_engine.Units.seconds 40.0)
  in
  let payoff =
    Ne_search.packet_payoff ~duration ~warmup ~ctx ~mbps ~rtt_ms ~buffer_bdp
      ~other ~n ()
  in
  let fair_bps = (Sim_engine.Units.mbps mbps :> float) /. float_of_int n in
  Ne_search.observed_equilibria ~epsilon:0.02 ~n ~fair_bps ~payoff ~window:2
    ()

(* Each grid point's NE search is adaptive (bisection on the previous
   probe), so the parallelism lives one level up: one worker per grid
   point, each running its probes sequentially. *)
let points ~other ~settings ~buffers (ctx : Common.ctx) =
  let n = flows_of_mode ctx.mode in
  let grid =
    List.concat_map
      (fun (mbps, rtt_ms) ->
        List.map (fun buffer_bdp -> (mbps, rtt_ms, buffer_bdp)) buffers)
      settings
  in
  let point_ctx = Common.sequential ctx in
  Sim_engine.Exec.map_list ~jobs:ctx.jobs
    (fun (mbps, rtt_ms, buffer_bdp) ->
      let params = Ccmodel.Params.of_paper_units ~mbps ~buffer_bdp ~rtt_ms in
      let region = Ccmodel.Ne.nash_region params ~n in
      let observed =
        List.map
          (fun k -> n - k)
          (observed_ne ~ctx:point_ctx ~mbps ~rtt_ms ~buffer_bdp ~other ~n)
      in
      {
        mbps;
        rtt_ms;
        buffer_bdp;
        n;
        predicted_sync = region.cubic_at_ne_sync;
        predicted_desync = region.cubic_at_ne_desync;
        observed;
      })
    grid

let string_of_observed = function
  | [] -> "-"
  | ks -> String.concat "/" (List.map string_of_int ks)

let in_region ?(slack = 0.15) p =
  let lo =
    Float.min p.predicted_sync p.predicted_desync
    -. (slack *. float_of_int p.n)
  in
  let hi =
    Float.max p.predicted_sync p.predicted_desync
    +. (slack *. float_of_int p.n)
  in
  List.exists
    (fun k -> float_of_int k >= lo && float_of_int k <= hi)
    p.observed

let run (ctx : Common.ctx) : Common.table =
  let points =
    points ~other:"bbr" ~settings:(settings ctx.mode)
      ~buffers:(buffers ctx.mode) ctx
  in
  let n = flows_of_mode ctx.mode in
  {
    Common.id = "fig09";
    title =
      Printf.sprintf "Predicted Nash region vs observed NE (%d flows)" n;
    header =
      [ "link(Mbps)"; "rtt(ms)"; "buffer(BDP)"; "pred_synch(#cubic)";
        "pred_desynch(#cubic)"; "observed(#cubic)" ];
    rows =
      List.map
        (fun p ->
          [
            Common.cell p.mbps;
            Common.cell p.rtt_ms;
            Common.cell p.buffer_bdp;
            Common.cell p.predicted_sync;
            Common.cell p.predicted_desync;
            string_of_observed p.observed;
          ])
        points;
    notes =
      [
        Printf.sprintf
          "NE found at every grid point: %b; observed NE inside the \
           predicted region (+/-15%% of n): %d/%d"
          (List.for_all (fun p -> p.observed <> []) points)
          (List.length (List.filter (fun p -> in_region p) points))
          (List.length points);
        "regions are identical across link speeds and RTTs when the buffer \
         is in BDP units (paper's normalization claim); deeper buffers -> \
         more CUBIC flows at the NE";
      ];
  }
