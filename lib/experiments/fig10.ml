(** Figure 10: Nash Equilibria when flows have different RTTs. 30 flows in
    three groups of 10 (10, 30, 50 ms) share a 100 Mbps bottleneck; buffers
    are multiples of the shortest-RTT flow's BDP. The NE search runs over
    per-group BBR counts (the paper's 2^30 profiles collapse to 11^3
    distributions); payoffs come from the packet-level simulator, each
    distribution simulated once per ctx (repeats are answered by the ctx's
    result store), and the search uses best-response dynamics from several
    starts followed by an exact neighbourhood check. *)

let mbps = 100.0

let[@simlint.domain_ok "read-only RTT config table; workers never write it"]
    group_rtts_ms =
  [| 10.0; 30.0; 50.0 |]

let group_size = 10

type point = {
  buffer_bdp : float;  (** In BDPs of the 10 ms flow. *)
  ne : int array list;  (** BBR counts per group at each NE found. *)
  cubic_at_ne : int list;
  shortest_rtt_mostly_cubic : bool;
  br_converged : bool;
      (** Every best-response run reached a fixpoint before the step cap. *)
}

let[@simlint.domain_ok "read-only group-size table; workers never write it"]
    sizes =
  Array.map (fun _ -> group_size) group_rtts_ms

let payoff_tables ~(ctx : Common.ctx) ~buffer_bdp ~seed =
  let shortest_rtt_ms = group_rtts_ms.(0) in
  let duration, warmup =
    match ctx.mode with
    | Common.Quick -> (Sim_engine.Units.seconds 50.0, Sim_engine.Units.seconds 20.0)
    | Common.Full -> (Sim_engine.Units.seconds 120.0, Sim_engine.Units.seconds 40.0)
  in
  let run_counts counts =
    (* Flow order: group-major; within a group, BBR flows first. *)
    let flows =
      List.concat
        (List.mapi
           (fun g rtt_ms ->
             let rtt = Sim_engine.Units.ms rtt_ms in
             List.init group_size (fun i ->
                 Tcpflow.Experiment.flow_config ~base_rtt:rtt
                   (if i < counts.(g) then "bbr" else "cubic")))
           (Array.to_list group_rtts_ms))
    in
    match
      Runs.eval ctx
        [
          Runs.config ~duration ~warmup ~mode:ctx.mode ~mbps
            ~rtt_ms:shortest_rtt_ms ~buffer_bdp ~flows ~seed ();
        ]
    with
    | [ r ] -> r
    | _ -> assert false
  in
  let group_mean counts ~group ~cca =
    let result = run_counts counts in
    let values =
      List.filter_map
        (fun (f : Tcpflow.Experiment.flow_result) ->
          if f.flow_id / group_size = group && f.flow_cca = cca then
            Some f.throughput_bps
          else None)
        result.Tcpflow.Experiment.per_flow
    in
    Common.mean values
  in
  {
    Ccgame.Grouped_game.u_cubic =
      (fun ~group ~counts -> group_mean counts ~group ~cca:"cubic");
    u_bbr = (fun ~group ~counts -> group_mean counts ~group ~cca:"bbr");
  }

(* Best-response dynamics: from a starting distribution, repeatedly let the
   group with the largest switching gain move one flow, until no group
   gains. Converges quickly in practice, but pure best response can cycle
   (two groups endlessly swapping a flow), so the result carries a
   converged flag: [true] means a genuine fixpoint, [false] means the step
   cap fired and the terminal profile is an arbitrary cycle member. *)
let best_response_fixpoint ?(max_steps = 60) ~sizes ~payoffs ~start () =
  if max_steps <= 0 then
    invalid_arg "Fig10.best_response_fixpoint: max_steps";
  if Array.length start <> Array.length sizes then
    invalid_arg "Fig10.best_response_fixpoint: start/sizes length mismatch";
  let counts = Array.copy start in
  let steps = ref 0 in
  let improved = ref true in
  while !improved && !steps < max_steps do
    incr steps;
    improved := false;
    let best_gain = ref 0.0 and best_move = ref None in
    Array.iteri
      (fun g k ->
        let current_cubic =
          if k < sizes.(g) then payoffs.Ccgame.Grouped_game.u_cubic ~group:g ~counts
          else nan
        in
        let current_bbr =
          if k > 0 then payoffs.Ccgame.Grouped_game.u_bbr ~group:g ~counts
          else nan
        in
        (* CUBIC flow in group g considers switching to BBR. *)
        if k < sizes.(g) then begin
          let next = Array.copy counts in
          next.(g) <- k + 1;
          let gain =
            payoffs.Ccgame.Grouped_game.u_bbr ~group:g ~counts:next
            -. current_cubic
          in
          if gain > !best_gain then begin
            best_gain := gain;
            best_move := Some (g, 1)
          end
        end;
        (* BBR flow considers switching back to CUBIC. *)
        if k > 0 then begin
          let next = Array.copy counts in
          next.(g) <- k - 1;
          let gain =
            payoffs.Ccgame.Grouped_game.u_cubic ~group:g ~counts:next
            -. current_bbr
          in
          if gain > !best_gain then begin
            best_gain := gain;
            best_move := Some (g, -1)
          end
        end)
      counts;
    match !best_move with
    | Some (g, delta) when !best_gain > 0.0 ->
      counts.(g) <- counts.(g) + delta;
      improved := true
    | _ -> ()
  done;
  (* [improved] still set means the loop was cut off mid-flight by the
     step cap, not by reaching a rest point. *)
  (counts, not !improved)

(* The paper observes NE to be threshold profiles: the CUBIC flows are
   exactly the shortest-RTT flows. [threshold_profile m] places m CUBIC
   flows starting from the shortest-RTT group; the BBR counts are the
   complement. *)
let threshold_profile m =
  let counts = Array.make (Array.length sizes) 0 in
  let remaining = ref m in
  Array.iteri
    (fun g size ->
      let cubic_here = min size !remaining in
      remaining := !remaining - cubic_here;
      counts.(g) <- size - cubic_here)
    sizes;
  counts

let find_ne ~buffer_bdp ~payoffs =
  (* Model-informed starting points: the homogeneous-RTT NE prediction at
     the middle RTT locates the neighbourhood; best-response dynamics then
     refine against the measured multi-RTT payoffs. *)
  let n_total = Array.fold_left ( + ) 0 sizes in
  let params =
    Ccmodel.Params.of_paper_units ~mbps ~buffer_bdp:(Float.max 1.0 buffer_bdp)
      ~rtt_ms:group_rtts_ms.(1)
  in
  let region = Ccmodel.Ne.nash_region params ~n:n_total in
  let m0 =
    int_of_float
      (Float.round
         ((region.cubic_at_ne_sync +. region.cubic_at_ne_desync) /. 2.0))
  in
  let clamp m = max 0 (min n_total m) in
  let starts =
    List.map threshold_profile
      (List.sort_uniq compare [ clamp (m0 - 5); clamp m0; clamp (m0 + 5) ])
  in
  let results =
    List.map
      (fun start -> best_response_fixpoint ~sizes ~payoffs ~start ())
      starts
  in
  let br_converged = List.for_all snd results in
  let terminals = List.sort_uniq compare (List.map fst results) in
  let ne =
    match
      List.filter
        (Ccgame.Grouped_game.is_equilibrium ~epsilon:0.02 ~sizes payoffs)
        terminals
    with
    | [] ->
      (* Measurement noise can break the strict check at the best-response
         fixpoints; report the {e converged} ones as the approximate NE
         (the paper likewise reports several neighbouring NE across
         trials). Capped runs are excluded: their terminal profile is
         wherever the cycle happened to be cut off, not a rest point. *)
      List.sort_uniq compare
        (List.filter_map (fun (c, ok) -> if ok then Some c else None) results)
    | ne -> ne
  in
  (ne, br_converged)

(* Best-response dynamics are adaptive, so each buffer point runs its
   probes sequentially and the buffer sweep is what parallelises. *)
let points (ctx : Common.ctx) =
  let buffers =
    match ctx.mode with
    | Common.Quick -> [ 5.0; 15.0; 30.0 ]
    | Common.Full -> [ 2.0; 5.0; 10.0; 15.0; 20.0; 30.0; 40.0; 50.0 ]
  in
  let point_ctx = Common.sequential ctx in
  Sim_engine.Exec.map_list ~jobs:ctx.jobs
    (fun buffer_bdp ->
      let payoffs = payoff_tables ~ctx:point_ctx ~buffer_bdp ~seed:1 in
      let ne, br_converged = find_ne ~buffer_bdp ~payoffs in
      let cubic_at_ne =
        List.map (Ccgame.Grouped_game.total_cubic ~sizes) ne
      in
      (* The paper's second trend: CUBIC flows at the NE are concentrated in
         the shortest-RTT group. *)
      let shortest_rtt_mostly_cubic =
        List.for_all
          (fun counts ->
            (* BBR count in group 0 should be the smallest. *)
            counts.(0) <= counts.(1) && counts.(1) <= counts.(2))
          ne
      in
      { buffer_bdp; ne; cubic_at_ne; shortest_rtt_mostly_cubic; br_converged })
    buffers

let run ctx : Common.table =
  let points = points ctx in
  {
    Common.id = "fig10";
    title =
      "NE with different RTTs (30 flows: 10 each at 10/30/50 ms, 100 Mbps)";
    header =
      [ "buffer(BDP_10ms)"; "NE bbr counts (10/30/50ms)"; "#cubic_at_NE";
        "short-RTT flows prefer CUBIC"; "BR converged" ];
    rows =
      List.map
        (fun p ->
          [
            Common.cell p.buffer_bdp;
            String.concat " "
              (List.map
                 (fun c ->
                   Printf.sprintf "%d-%d-%d" c.(0) c.(1) c.(2))
                 p.ne);
            String.concat "/" (List.map string_of_int p.cubic_at_ne);
            string_of_bool p.shortest_rtt_mostly_cubic;
            string_of_bool p.br_converged;
          ])
        points;
    notes =
      [
        Printf.sprintf "NE found at every buffer size: %b"
          (List.for_all (fun p -> p.ne <> []) points);
        Printf.sprintf "best-response dynamics converged at every buffer: %b"
          (List.for_all (fun p -> p.br_converged) points);
        "paper trends: (1) NE exist in multi-RTT networks; (2) at the NE \
         the CUBIC flows are the shortest-RTT flows";
      ];
  }
