(** Figure 11(a,b): Nash Equilibria between CUBIC and BBRv2 at 50 and
    100 Mbps, RTT in {20,40,80} ms. Reuses fig09's machinery with the
    ["bbr2"] CCA; the model's Nash region for BBR(v1) is shown alongside,
    since the paper observes BBRv2's NE have at least as many CUBIC flows
    for the same buffer. *)

let buffers mode =
  match mode with
  | Common.Quick -> [ 2.0; 10.0; 30.0 ]
  | Common.Full -> [ 1.0; 2.0; 5.0; 10.0; 18.0; 30.0; 50.0 ]

let settings mode =
  match mode with
  | Common.Quick -> [ (50.0, 40.0); (100.0, 20.0); (100.0, 80.0) ]
  | Common.Full ->
    [ (50.0, 20.0); (50.0, 40.0); (50.0, 80.0);
      (100.0, 20.0); (100.0, 40.0); (100.0, 80.0) ]

let run (ctx : Common.ctx) : Common.table =
  let points =
    Fig09.points ~other:"bbr2" ~settings:(settings ctx.mode)
      ~buffers:(buffers ctx.mode) ctx
  in
  let n = Fig09.flows_of_mode ctx.mode in
  (* The paper's comparison: BBRv2's NE should not have fewer CUBIC flows
     than the BBR region's lower bound. *)
  let at_least_as_cubic =
    List.filter
      (fun (p : Fig09.point) ->
        List.exists
          (fun k ->
            float_of_int k
            >= Float.min p.predicted_sync p.predicted_desync
               -. (0.15 *. float_of_int p.n))
          p.observed)
      points
  in
  {
    Common.id = "fig11";
    title = Printf.sprintf "NE between CUBIC and BBRv2 (%d flows)" n;
    header =
      [ "link(Mbps)"; "rtt(ms)"; "buffer(BDP)"; "bbr_region_synch";
        "bbr_region_desynch"; "bbr2_observed(#cubic)" ];
    rows =
      List.map
        (fun (p : Fig09.point) ->
          [
            Common.cell p.mbps;
            Common.cell p.rtt_ms;
            Common.cell p.buffer_bdp;
            Common.cell p.predicted_sync;
            Common.cell p.predicted_desync;
            Fig09.string_of_observed p.observed;
          ])
        points;
    notes =
      [
        Printf.sprintf
          "points whose BBRv2 NE has at least as many CUBIC flows as the \
           BBR region's lower bound (-15%% n): %d/%d (paper: BBRv2 is less \
           aggressive, so its NE favour CUBIC)"
          (List.length at_least_as_cubic)
          (List.length points);
      ];
  }
