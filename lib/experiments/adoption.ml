(** The [evolve] experiment: population-scale CCA adoption dynamics.

    The static experiments ask where the Nash equilibria are; this one asks
    whether a population of users actually gets there. Each scenario cell
    (link rate x buffer depth) holds a population partitioned into RTT
    classes; the state is one BBR share per class, evolved by
    {!Ccgame.Evolve} dynamics (replicator / smoothed best response / logit)
    against tagged-flow deviation payoffs measured by a {!Sim_backend}
    backend through {!Runs.run_specs} — every profile simulated at most
    once per ctx, content-addressed in the ctx's result store.

    Each cell is an independent, sequential unit of work that evolves its
    dynamics in turn; the cells shard across [ctx.jobs] domains (the fig10
    pattern). Cells never share a spec, so no two domains ask for the same
    one: the trajectories are byte-identical and the number of simulations
    is the same for any [--jobs]. Terminal states are checked against
    {!Ccgame.Grouped_game.is_equilibrium} on the rounded counts, and
    packet-level spot checks re-simulate the profile nearest each share
    crossing to confirm the analytic backend got the advantage signs
    right. *)

module Units = Sim_engine.Units

let[@simlint.domain_ok "read-only RTT class table; workers never write it"]
    class_rtts_ms =
  [| 20.0; 40.0; 80.0 |]

type cell = {
  label : string;
  cell_mbps : float;
  buffer_bdp : float;  (** In BDPs of the shortest-RTT class. *)
}

let cells = function
  | Common.Quick ->
    [
      { label = "50M-4bdp"; cell_mbps = 50.0; buffer_bdp = 4.0 };
      { label = "100M-16bdp"; cell_mbps = 100.0; buffer_bdp = 16.0 };
    ]
  | Common.Full ->
    [
      { label = "50M-1bdp"; cell_mbps = 50.0; buffer_bdp = 1.0 };
      { label = "50M-4bdp"; cell_mbps = 50.0; buffer_bdp = 4.0 };
      { label = "100M-4bdp"; cell_mbps = 100.0; buffer_bdp = 4.0 };
      { label = "100M-16bdp"; cell_mbps = 100.0; buffer_bdp = 16.0 };
    ]

let class_size = function Common.Quick -> 5 | Common.Full -> 10
let class_sizes mode = Array.map (fun _ -> class_size mode) class_rtts_ms

(* Simulated horizons. The adoption loop runs tens of generations x up to
   seven profiles per state, so its specs are shorter than the figure
   experiments'; the analytic backends settle well within these windows.
   Spot checks use a shorter shared horizon because the packet simulator
   pays real time for every simulated second. *)
let horizon = function
  | Common.Quick -> (30.0, 10.0)
  | Common.Full -> (60.0, 20.0)

let spot_horizon = (20.0, 5.0)

(* One profile = one BBR count per class. Flow order is class-major with
   the BBR flows first inside each class, which is what [group_mean]
   assumes when slicing the outcome arrays. *)
let spec_of_counts ~mode ~cell ~seed ~sizes ~duration ~warmup counts =
  let rate_bps = Units.mbps cell.cell_mbps in
  let rtt0 = Units.ms class_rtts_ms.(0) in
  let buffer_bytes =
    Units.scale cell.buffer_bdp (Units.bdp_bytes ~rate_bps ~rtt:rtt0)
  in
  ignore (mode : Common.mode);
  let flows =
    List.concat
      (List.mapi
         (fun g rtt_ms ->
           let rtt = Units.ms rtt_ms in
           List.init sizes.(g) (fun i ->
               {
                 Sim_backend.cca = (if i < counts.(g) then "bbr" else "cubic");
                 rtt;
               }))
         (Array.to_list class_rtts_ms))
  in
  Sim_backend.spec ~rate_bps ~buffer_bytes
    ~duration:(Units.seconds duration)
    ~warmup:(Units.seconds warmup)
    ~seed flows

let group_mean (o : Sim_backend.outcome) ~sizes ~group ~cca =
  let offset = ref 0 in
  for g = 0 to group - 1 do
    offset := !offset + sizes.(g)
  done;
  let sum = ref 0.0 and n = ref 0 in
  for i = !offset to !offset + sizes.(group) - 1 do
    if String.equal o.Sim_backend.per_flow_cca.(i) cca then begin
      sum := !sum +. o.Sim_backend.per_flow_bps.(i);
      incr n
    end
  done;
  if !n = 0 then nan else !sum /. float_of_int !n

(* All profiles the dynamics can query at one state: the rounded base
   profile plus every one-flow deviation — the same neighbourhood
   [Grouped_game.is_equilibrium] probes, so the terminal NE check is
   answered from the store too. *)
let neighbourhood ~sizes counts =
  let bump g delta =
    let next = Array.copy counts in
    next.(g) <- next.(g) + delta;
    next
  in
  counts
  :: List.concat
       (List.init (Array.length counts) (fun g ->
            (if counts.(g) < sizes.(g) then [ bump g 1 ] else [])
            @ if counts.(g) > 0 then [ bump g (-1) ] else []))

(* Tagged-flow payoffs over the quantized profile, batched per state: the
   first query at a new state prefetches the whole deviation neighbourhood
   through [Runs.run_specs] in one submission, so a generation costs one
   batch rather than up to 2G sequential runs. *)
let tagged_payoffs ~ctx ~backend ~cell ~seed ~sizes =
  let duration, warmup = horizon ctx.Common.mode in
  let spec_of counts =
    spec_of_counts ~mode:ctx.Common.mode ~cell ~seed ~sizes ~duration ~warmup
      counts
  in
  let outcome_of counts =
    match Runs.run_specs ctx backend [ spec_of counts ] with
    | [ o ] -> o
    | _ -> assert false
  in
  let last = ref [||] in
  let prepare shares =
    if !last <> shares then begin
      let counts = Ccgame.Evolve.counts_of_shares ~sizes shares in
      ignore
        (Runs.run_specs ctx backend
           (List.map spec_of (neighbourhood ~sizes counts))
        : Sim_backend.outcome list);
      last := Array.copy shares
    end
  in
  let tagged ~cca ~boundary ~delta ~cls ~shares =
    prepare shares;
    let counts = Ccgame.Evolve.counts_of_shares ~sizes shares in
    (* The tagged flow must exist in the profile it is paid under: at the
       boundary where its class holds none of its strategy, it deviates
       into the profile one flow over. *)
    if counts.(cls) = boundary cls then counts.(cls) <- counts.(cls) + delta;
    group_mean (outcome_of counts) ~sizes ~group:cls ~cca
  in
  ( {
      Ccgame.Evolve.u_cubic =
        (fun ~cls ~shares ->
          tagged ~cca:"cubic" ~boundary:(fun c -> sizes.(c)) ~delta:(-1) ~cls
            ~shares);
      u_bbr =
        (fun ~cls ~shares ->
          tagged ~cca:"bbr" ~boundary:(fun _ -> 0) ~delta:1 ~cls ~shares);
    },
    outcome_of )

let grouped_payoffs ~sizes outcome_of =
  {
    Ccgame.Grouped_game.u_cubic =
      (fun ~group ~counts ->
        group_mean (outcome_of counts) ~sizes ~group ~cca:"cubic");
    u_bbr =
      (fun ~group ~counts ->
        group_mean (outcome_of counts) ~sizes ~group ~cca:"bbr");
  }

(* Dimensionless step size per dynamics: full-strength replicator (its
   s(1-s) factor already damps the step), gentler smoothed best-response
   and logit so a coarse payoff landscape cannot make them ring. *)
let rate_of = function
  | Ccgame.Evolve.Replicator -> 1.0
  | Ccgame.Evolve.Best_response -> 0.4
  | Ccgame.Evolve.Logit _ -> 0.4

let default_dynamics =
  [
    Ccgame.Evolve.Replicator;
    Ccgame.Evolve.Best_response;
    Ccgame.Evolve.Logit Ccgame.Evolve.default_logit_temperature;
  ]

(* Generations whose update crossed the 50% mark in some class — the
   interesting states: that is where the advantage changes sign and where
   an analytic backend getting the sign wrong would send the population
   the wrong way. *)
let crossing_generations (traj : Ccgame.Evolve.trajectory) =
  let crossings = ref [] in
  Array.iteri
    (fun gen state ->
      if gen > 0 then
        let prev = traj.Ccgame.Evolve.states.(gen - 1) in
        let crossed = ref false in
        Array.iteri
          (fun c s ->
            if (prev.(c) -. 0.5) *. (s -. 0.5) < 0.0 then crossed := true)
          state;
        if !crossed then crossings := gen :: !crossings)
    traj.Ccgame.Evolve.states;
  List.rev !crossings

(* Re-simulate the profile at up to [limit] crossing states (terminal
   state when the trajectory never crosses) on the packet backend and
   compare per-class advantage signs against the analytic backend: a
   disagreement means the dynamics were steered by an artifact of the
   analytic model. Near-indifferent classes (|normalized advantage| below
   [slack] on either backend) never count as disagreement — crossings are
   exactly where advantages pass through zero. *)
let spot_check ~ctx ~backend ~cell ~seed ~sizes ~limit traj =
  if limit = 0 || String.equal (Sim_backend.name backend) "packet" then None
  else begin
    let duration, warmup = spot_horizon in
    let spec_of counts =
      spec_of_counts ~mode:ctx.Common.mode ~cell ~seed ~sizes ~duration ~warmup
        counts
    in
    let states = traj.Ccgame.Evolve.states in
    let gens =
      match crossing_generations traj with
      | [] -> [ Array.length states - 1 ]
      | gens -> List.filteri (fun i _ -> i < limit) gens
    in
    let slack = 0.15 in
    let agree = ref 0 and total = ref 0 in
    List.iter
      (fun gen ->
        let counts = Ccgame.Evolve.counts_of_shares ~sizes states.(gen) in
        let run b =
          match Runs.run_specs ctx b [ spec_of counts ] with
          | [ o ] -> o
          | _ -> assert false
        in
        let packet = run Sim_backend.packet and analytic = run backend in
        let ok = ref true in
        Array.iteri
          (fun g k ->
            (* Only classes holding both CCAs have a measurable sign. *)
            if k > 0 && k < sizes.(g) then begin
              let adv o =
                let ub = group_mean o ~sizes ~group:g ~cca:"bbr" in
                let uc = group_mean o ~sizes ~group:g ~cca:"cubic" in
                Ccgame.Evolve.advantage_of ~ub ~uc
              in
              let dp = adv packet and da = adv analytic in
              if
                dp *. da < 0.0
                && Float.min (Float.abs dp) (Float.abs da) > slack
              then ok := false
            end)
          counts;
        incr total;
        if !ok then incr agree)
      gens;
    Some (!agree, !total)
  end

type unit_result = {
  u_cell : cell;
  u_dyn : Ccgame.Evolve.dynamics;
  u_traj : Ccgame.Evolve.trajectory;
  u_eps_nash : bool;
  u_spot : (int * int) option;  (** (sign-agreeing checks, checks run). *)
}

(* One trajectory; [ctx] is the sequential ctx of its cell's job. *)
let run_unit ~ctx ~backend ~seed ~max_generations ~spot_checks cell init
    dyn =
  let sizes = class_sizes ctx.Common.mode in
  let payoffs, outcome_of = tagged_payoffs ~ctx ~backend ~cell ~seed ~sizes in
  let traj =
    Ccgame.Evolve.run ~tol:1e-3 dyn ~rate:(rate_of dyn) ~max_generations
      payoffs ~init
  in
  let terminal =
    traj.Ccgame.Evolve.states.(Array.length traj.Ccgame.Evolve.states - 1)
  in
  let u_eps_nash =
    Ccgame.Grouped_game.is_equilibrium ~epsilon:0.05 ~sizes
      (grouped_payoffs ~sizes outcome_of)
      (Ccgame.Evolve.counts_of_shares ~sizes terminal)
  in
  let u_spot =
    spot_check ~ctx ~backend ~cell ~seed ~sizes ~limit:spot_checks traj
  in
  { u_cell = cell; u_dyn = dyn; u_traj = traj; u_eps_nash; u_spot }

let share_cell s = Printf.sprintf "%.4f" s

let rows_of_unit ~weights u =
  let traj = u.u_traj in
  let last = Array.length traj.Ccgame.Evolve.states - 1 in
  let gen_opt = function None -> "-" | Some g -> string_of_int g in
  List.init (last + 1) (fun gen ->
      let state = traj.Ccgame.Evolve.states.(gen) in
      let terminal = gen = last in
      [
        u.u_cell.label;
        Ccgame.Evolve.dynamics_name u.u_dyn;
        string_of_int gen;
        share_cell (Ccgame.Evolve.mean_share ~weights state);
        String.concat "/" (Array.to_list (Array.map share_cell state));
        Printf.sprintf "%.4f" traj.Ccgame.Evolve.residuals.(gen);
        (if terminal then gen_opt traj.Ccgame.Evolve.converged_at else "-");
        (if terminal then gen_opt traj.Ccgame.Evolve.fixated_at else "-");
        (if terminal then string_of_bool u.u_eps_nash else "-");
        (if terminal then
           match u.u_spot with
           | None -> "skip"
           | Some (agree, total) -> Printf.sprintf "%d/%d" agree total
         else "-");
      ])

let run_with ?(dynamics = default_dynamics) ?(backend = Sim_backend.fluid)
    ?(seed = 1) ?max_generations ?spot_checks (ctx : Common.ctx) :
    Common.table =
  if dynamics = [] then invalid_arg "Adoption.run_with: no dynamics";
  let max_generations =
    match max_generations with
    | Some g -> g
    | None -> ( match ctx.mode with Common.Quick -> 60 | Common.Full -> 150)
  in
  let spot_checks =
    match spot_checks with
    | Some n -> n
    | None -> ( match ctx.mode with Common.Quick -> 1 | Common.Full -> 2)
  in
  let cells = cells ctx.mode in
  (* Seeded initial shares, drawn per cell up front (shared by every
     dynamics on that cell so their trajectories are comparable) and away
     from the absorbing boundaries so replicator dynamics can move. *)
  let inits =
    List.mapi
      (fun i _ ->
        let rng = Sim_engine.Rng.create (seed + (1009 * i)) in
        Array.map
          (fun _ -> Sim_engine.Rng.uniform_in rng ~lo:0.2 ~hi:0.8)
          class_rtts_ms)
      cells
  in
  (* The adoption loop is adaptive, so each cell runs its dynamics
     sequentially and the cells are what parallelises; Exec.map_list
     preserves order, so the table is independent of ctx.jobs. *)
  let cell_ctx = Common.sequential ctx in
  let results =
    List.concat
      (Sim_engine.Exec.map_list ~jobs:ctx.jobs
         (fun (cell, init) ->
           List.map
             (run_unit ~ctx:cell_ctx ~backend ~seed ~max_generations
                ~spot_checks cell init)
             dynamics)
         (List.combine cells inits))
  in
  let weights =
    Array.map float_of_int (class_sizes ctx.mode)
  in
  let all_nash = List.for_all (fun u -> u.u_eps_nash) results in
  let spots_ran, spots_agreed =
    List.fold_left
      (fun (ran, ok) u ->
        match u.u_spot with
        | None -> (ran, ok)
        | Some (agree, total) -> (ran + total, ok + agree))
      (0, 0) results
  in
  {
    Common.id = "evolve";
    title =
      Printf.sprintf
        "CCA adoption dynamics (%s backend; classes %s ms, %d flows each)"
        (Sim_backend.name backend)
        (String.concat "/"
           (List.map
              (fun r -> Printf.sprintf "%g" r)
              (Array.to_list class_rtts_ms)))
        (class_size ctx.mode);
    header =
      [
        "cell"; "dynamics"; "gen"; "bbr_share"; "shares_by_class";
        "ne_residual"; "converged_gen"; "fixation_gen"; "eps_nash";
        "spot_check";
      ];
    rows = List.concat_map (rows_of_unit ~weights) results;
    notes =
      [
        Printf.sprintf "terminal populations epsilon-Nash (eps=0.05): %b"
          all_nash;
        (if spots_ran = 0 then
           "packet spot-checks: skipped (packet backend or disabled)"
         else
           Printf.sprintf
             "packet spot-checks: %d/%d sign-agree near share crossings"
             spots_agreed spots_ran);
        "payoffs are tagged-flow deviation goodputs on the rounded profile; \
         dynamics rates: replicator 1.0, best-response 0.4, logit 0.4";
        "ne_residual is measured on the continuous shares (an asymptotic \
         straggler fraction keeps it positive near absorption); eps_nash \
         judges the rounded integer profile";
      ];
  }

let run ctx = run_with ctx
