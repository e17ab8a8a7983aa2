(** Extension: the authors' earlier APNet'21 result (paper's ref [21]) as an
    executable artifact — the 2-flow CUBIC/BBR normal-form game.

    Two players each choose CUBIC or BBR; payoffs are the measured goodputs
    of the four resulting profiles. The paper's §6 recalls that a NE exists
    in all such 2-flow games; we regenerate the payoff matrix and enumerate
    the pure equilibria with {!Ccgame.Grouped_game} (one group of size 1 per
    player) at several buffer depths. *)

let mbps = 50.0
let rtt_ms = 40.0
let strategies = [| "cubic"; "bbr" |]

type point = {
  buffer_bdp : float;
  payoffs : (int array * float * float) list;  (** profile, u0, u1 (Mbps). *)
  equilibria : int array list;
}

let profiles = [ [| 0; 0 |]; [| 0; 1 |]; [| 1; 0 |]; [| 1; 1 |] ]

let config ~mode ~buffer_bdp profile =
  let rtt = Sim_engine.Units.ms rtt_ms in
  let flows =
    Array.to_list
      (Array.map
         (fun s -> Tcpflow.Experiment.flow_config ~base_rtt:rtt strategies.(s))
         profile)
  in
  Runs.config ~mode ~mbps ~rtt_ms ~buffer_bdp ~flows ~seed:2 ()

(* Each player is a group of one whose BBR count (0 or 1) is its strategy
   index, so a count array is a profile and either CCA's payoff is the
   player's entry of that profile's row. *)
let point ~buffer_bdp payoff_of_profile =
  let payoff ~group ~counts =
    let u0, u1 = payoff_of_profile counts in
    if group = 0 then u0 else u1
  in
  let equilibria =
    Ccgame.Grouped_game.equilibria ~sizes:[| 1; 1 |]
      { Ccgame.Grouped_game.u_cubic = payoff; u_bbr = payoff }
  in
  let payoffs =
    List.map
      (fun profile ->
        let u0, u1 = payoff_of_profile profile in
        (profile, Common.mbps u0, Common.mbps u1))
      profiles
  in
  { buffer_bdp; payoffs; equilibria }

(* All four profiles of every buffer depth go through [Runs.eval] as one
   batch; the games are then assembled from the measured payoff table. *)
let points (ctx : Common.ctx) =
  let buffers =
    match ctx.mode with
    | Common.Quick -> [ 2.0; 10.0; 30.0 ]
    | Common.Full -> [ 1.0; 2.0; 5.0; 10.0; 20.0; 30.0; 50.0 ]
  in
  let grid =
    List.concat_map
      (fun buffer_bdp -> List.map (fun p -> (buffer_bdp, p)) profiles)
      buffers
  in
  let results =
    Runs.eval ctx
      (List.map
         (fun (buffer_bdp, profile) -> config ~mode:ctx.mode ~buffer_bdp profile)
         grid)
  in
  let table = Hashtbl.create 32 in
  List.iter2
    (fun (buffer_bdp, profile) result ->
      let u =
        match result.Tcpflow.Experiment.per_flow with
        | [ a; b ] ->
          ( a.Tcpflow.Experiment.throughput_bps,
            b.Tcpflow.Experiment.throughput_bps )
        | _ -> assert false
      in
      Hashtbl.replace table (buffer_bdp, Array.to_list profile) u)
    grid results;
  List.map
    (fun buffer_bdp ->
      point ~buffer_bdp (fun profile ->
          Hashtbl.find table (buffer_bdp, Array.to_list profile)))
    buffers

let name_of profile =
  Printf.sprintf "%s/%s" strategies.(profile.(0)) strategies.(profile.(1))

let run ctx : Common.table =
  let points = points ctx in
  {
    Common.id = "ext-2flow";
    title = "Extension: the 2-flow CUBIC/BBR game (APNet'21, paper ref [21])";
    header =
      [ "buffer(BDP)"; "profile"; "u_flow0(Mbps)"; "u_flow1(Mbps)"; "NE?" ];
    rows =
      List.concat_map
        (fun p ->
          List.map
            (fun (profile, u0, u1) ->
              [
                Common.cell p.buffer_bdp;
                name_of profile;
                Common.cell u0;
                Common.cell u1;
                (if List.exists (fun ne -> ne = profile) p.equilibria then
                   "yes"
                 else "");
              ])
            p.payoffs)
        points;
    notes =
      [
        Printf.sprintf "a pure NE exists at every buffer size: %b"
          (List.for_all (fun p -> p.equilibria <> []) points);
        "shallow buffers: bbr/bbr is the equilibrium (BBR dominant \
         strategy); deep buffers: the equilibrium gains CUBIC — the 2-flow \
         seed of the paper's Fig. 9 trend";
      ];
  }
