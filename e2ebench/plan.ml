(* Workload plans: the fixed batch of operations one run repeats, drawn
   from the seed. Each workload is a closed batch at a fixed input size.
   The grid shape (strata, counts, horizons) is fixed; the seed only
   places each operation inside its stratum and seeds its simulation, so
   the work per batch stays comparable across seeds. *)

module E = Tcpflow.Experiment
module Units = Sim_engine.Units

type kind =
  | Long_flows of Experiments.Runs.mix_spec list
      (** Run through [Runs.mix_many]; [configs] are the exact configs it
          plans, one trial per spec. *)
  | Churn  (** [configs] run through [Runs.eval]. *)
  | Analytic of (Sim_backend.t * Sim_backend.spec list) list
      (** One [Runs.run_specs] call per backend. *)

type t = {
  workload : string;
  jobs : int;  (** Jobs of every timed pass: 1, see the README. *)
  kind : kind;
  configs : E.config list;  (** Packet operations; empty for analytic. *)
  keys : string list;  (** Cache key of every operation, in order. *)
  ops : int;
  items : int;  (** Short flows scheduled over all configs (churn). *)
  gen_s : float;  (** Host time spent generating those schedules. *)
  round_s : float;
      (** Nominal host seconds of one untraced round on a 2-vCPU host: a run
          of [S] seconds times [S / round_s] rounds, however fast it goes. *)
  warm_replays : int;  (** Warm replays per round, about 0.2 s of them. *)
}

let workloads = [ "long-flows"; "churn"; "analytic-sweep" ]

let int_in rng lo hi = lo + Random.State.int rng (hi - lo + 1)

(* A fixed design point [u] in [0, 1), nudged by the seed by at most a
   sixteenth of a stratum of [k]: every seed draws its own inputs, while
   the batch's work and memory, which depend on where the points sit,
   stay put. *)
let nudge rng ~k u =
  let w = 0.0625 /. float_of_int k in
  Float.min 0.999999 (Float.max 0.0 (u +. (w *. (Random.State.float rng 2.0 -. 1.0))))

let between lo hi u = lo +. ((hi -. lo) *. u)
let log_between lo hi u = exp (between (log lo) (log hi) u)

(* [k] stratum midpoints of [0, 1) in an order fixed by [tag] (not by the
   seed): one Latin-hypercube axis of the fixed design. *)
let design_axis ~tag k =
  let order = Random.State.make [| tag; k |] in
  let a = Array.init k (fun i -> (float_of_int i +. 0.5) /. float_of_int k) in
  for i = k - 1 downto 1 do
    let j = Random.State.int order (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* Paper-grid long-lived mixes at 100 Mbps / 40 ms, half the flows CUBIC,
   weighted like quick [repro all]'s packet time. fig09 and fig11 (147 s
   and 109 s on a 2-vCPU host) run 20-flow CUBIC/BBR and CUBIC/BBRv2
   mixes for 60 s with 25 s of warm-up; fig03 (35 s) runs 2-flow mixes
   for quick mode's 90 s with 30 s of warm-up. So: four 20-flow cells at
   buffers spanning 1-30 BDP, BBR on two and BBRv2 on two, and one 2-flow
   CUBIC/BBR cell. The seed nudges each buffer and seeds each simulation. *)
let long_flows ~smoke rng =
  let mbps = 100.0 and rtt_ms = 40.0 in
  let quick = Experiments.Common.Quick in
  let fig09 = (60.0, 25.0)
  and fig03 =
    ((Experiments.Common.duration quick :> float), (Experiments.Common.warmup quick :> float))
  in
  let cells =
    if smoke then [ (0.5, 20, "bbr", (3.0, 1.0)); (0.5, 2, "bbr", (3.0, 1.0)) ]
    else
      [
        (0.125, 20, "bbr", fig09);
        (0.375, 20, "bbr2", fig09);
        (0.625, 20, "bbr", fig09);
        (0.875, 20, "bbr2", fig09);
        (0.5, 2, "bbr", fig03);
      ]
  in
  List.map
    (fun (u, n, other, (duration, warmup)) ->
      let buffer_bdp = log_between 1.0 30.0 (nudge rng ~k:4 u) in
      let n_cubic = n / 2 in
      let base_seed = int_in rng 1 1_000_000 in
      let duration = Units.seconds duration
      and warmup = Units.seconds warmup in
      let mix =
        Experiments.Runs.spec ~duration ~warmup ~base_seed ~mbps ~rtt_ms
          ~buffer_bdp ~n_cubic ~other ~n_other:(n - n_cubic) ()
      in
      (* The one trial [Runs.mix_many] plans for this spec in quick mode. *)
      let rtt = Units.ms rtt_ms in
      let flows =
        List.init n_cubic (fun _ -> E.flow_config ~base_rtt:rtt "cubic")
        @ List.init (n - n_cubic) (fun _ -> E.flow_config ~base_rtt:rtt other)
      in
      let config =
        Experiments.Runs.config ~duration ~warmup ~mode:quick ~mbps ~rtt_ms
          ~buffer_bdp ~flows ~seed:base_seed ()
      in
      (mix, config))
    cells

(* The [workload] experiment's shape: one long CUBIC and one long BBR flow
   at 50 Mbps / 40 ms under open-loop web-object churn, at 3 and 10 BDP
   and four offered loads spanning 50-80 %. The seed nudges each load and
   seeds each schedule and simulation. *)
let churn ~smoke rng =
  let rate_bps = Units.mbps 50.0 and rtt = Units.ms 40.0 in
  let sizes = Workload.Dist.web_objects in
  let duration, warmup = if smoke then (3.0, 1.0) else (10.0, 3.0) in
  let buffers = if smoke then [ 3.0 ] else [ 3.0; 10.0 ] in
  let loads = if smoke then [ 0.25 ] else [ 0.125; 0.375; 0.625; 0.875 ] in
  List.concat_map
    (fun buffer_bdp ->
      List.map
        (fun u ->
          let load = between 0.5 0.8 (nudge rng ~k:4 u) in
          let workload =
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
          E.config ~seed:(int_in rng 1 1_000_000)
            ~warmup:(Units.seconds warmup) ~workload ~rate_bps
            ~buffer_bytes:(E.buffer_bytes_of_bdp ~rate_bps ~rtt ~bdp:buffer_bdp)
            ~duration:(Units.seconds duration)
            [ E.flow_config "cubic"; E.flow_config "bbr" ])
        loads)
    buffers

(* Fluid and ODE specs over rate (10-1000 Mbps) x buffer (0.5-100 BDP) x
   RTT (10-200 ms) x flow count (1-20) x CCA mix. Shapes (horizon x flow
   count) are a fixed multiset; inside each shape, rate, buffer and RTT
   sit on a fixed Latin-hypercube design the seed nudges, and the CCAs
   cycle through cubic/bbr/bbr2 from a fixed per-spec offset (which CCA
   mix a spec models sets most of its cost, so the seed leaves it be). *)
let analytic ~smoke rng =
  let horizons = if smoke then [ 5.0 ] else [ 20.0; 40.0; 60.0 ] in
  let flow_counts = if smoke then [ 1; 3 ] else [ 1; 2; 4; 8; 12; 20 ] in
  let k = if smoke then 2 else 8 in
  let ccas = [| "cubic"; "bbr"; "bbr2" |] in
  let shape backend horizon n =
    let tag = (backend * 1000) + (int_of_float horizon * 100) + n in
    let rates = design_axis ~tag k
    and rtts = design_axis ~tag:(tag + 1) k
    and buffers = design_axis ~tag:(tag + 2) k in
    List.init k (fun j ->
        let rate_bps = Units.mbps (log_between 10.0 1000.0 (nudge rng ~k rates.(j))) in
        let rtt = Units.ms (between 10.0 200.0 (nudge rng ~k rtts.(j))) in
        let bdp = log_between 0.5 100.0 (nudge rng ~k buffers.(j)) in
        let offset = (tag + j) mod 3 in
        let flows =
          List.init n (fun f -> { Sim_backend.cca = ccas.((f + offset) mod 3); rtt })
        in
        Sim_backend.spec ~rate_bps
          ~buffer_bytes:(Units.scale bdp (Units.bdp_bytes ~rate_bps ~rtt))
          ~duration:(Units.seconds horizon)
          ~warmup:(Units.seconds (horizon /. 3.0))
          ~seed:(int_in rng 1 1_000_000) flows)
  in
  List.mapi
    (fun i backend ->
      ( backend,
        List.concat_map
          (fun horizon -> List.concat_map (shape i horizon) flow_counts)
          horizons ))
    [ Sim_backend.fluid; Sim_backend.ode ]

let workload_tag = function
  | "long-flows" -> 1
  | "churn" -> 2
  | "analytic-sweep" -> 3
  | w -> invalid_arg ("unknown workload " ^ w)

(* Schedules [Experiment.setup] will generate for these configs, drawn
   here from each config's seed: the count is the work churn drives and
   the host time is the workload layer's share of set-up. *)
let schedules configs =
  Clock.time (fun () ->
      List.fold_left
        (fun acc (c : E.config) ->
          match c.workload with
          | None -> acc
          | Some w ->
            acc
            + Workload.Schedule.count
                (Workload.Schedule.generate_seeded ~arrival:w.wl_arrival
                   ~sizes:w.wl_sizes ~horizon_s:(c.duration :> float)
                   ~seed:c.seed ()))
        0 configs)

let make ~smoke ~seed workload =
  let rng = Random.State.make [| seed; workload_tag workload |] in
  let packet kind ~round_s ~warm_replays configs =
    let items, gen_s = schedules configs in
    {
      workload;
      jobs = 1;
      kind;
      configs;
      keys = List.map E.digest configs;
      ops = List.length configs;
      items;
      gen_s;
      round_s;
      warm_replays;
    }
  in
  match workload with
  | "long-flows" ->
    let pairs = long_flows ~smoke rng in
    packet (Long_flows (List.map fst pairs)) ~round_s:5.0 ~warm_replays:4000
      (List.map snd pairs)
  | "churn" -> packet Churn ~round_s:2.0 ~warm_replays:500 (churn ~smoke rng)
  | _ ->
    let groups = analytic ~smoke rng in
    let keys =
      List.concat_map
        (fun (b, specs) -> List.map (Sim_backend.digest b) specs)
        groups
    in
    {
      workload;
      jobs = 1;
      kind = Analytic groups;
      configs = [];
      keys;
      ops = List.length keys;
      items = 0;
      gen_s = 0.0;
      round_s = 1.0;
      warm_replays = 60;
    }
