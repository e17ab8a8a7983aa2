(* Benchmark harness.

   Six sections, all run by default:

   1. [micro] — one Bechamel Test.make per table/figure benchmarking that
      figure's computational kernel, plus core-substrate kernels.
   2. [fluid] — the analytic backends: the SoA fluid kernel and the ODE
      model's 2-flow competition cell.
   3. [evolve] — the adoption-dynamics step kernel and a full trajectory.
   4. [workload] — schedule generation and an open-loop churn run.
   5. [scaling] — wall clock of a fixed simulation batch under growing
      `--jobs`.
   6. [ablations] — the design-choice experiments called out in DESIGN.md:
      BBR's 2xBDP in-flight cap, CUBIC's TCP-friendly region, and the fluid
      simulator's CUBIC synchronization modes.

   The paper's tables and figures themselves come from
   `dune exec bin/repro.exe -- all` (quick) or `all --full`.

   Set REPRO_BENCH_SECTIONS to a comma-separated subset (e.g. "micro") to
   run less.

   Machine-readable output: `--json DIR` (or REPRO_BENCH_JSON=DIR) writes
   each Bechamel-measured section as DIR/BENCH_<section>.json mapping test
   name -> { ns_per_run; minor_words_per_run }, so the perf trajectory can
   be tracked across PRs (format documented in DESIGN.md "Event core").
   `--smoke` (or REPRO_BENCH_SMOKE=1) shrinks the measurement quota so CI
   can run the micro section quickly; smoke numbers are noisy and only
   meant to prove the harness runs and to archive a rough trajectory. *)

open Bechamel
open Toolkit

let params_10bdp =
  Ccmodel.Params.of_paper_units ~mbps:50.0 ~buffer_bdp:10.0 ~rtt_ms:40.0

let buffer_grid = [ 1.0; 2.0; 5.0; 10.0; 20.0; 50.0 ]

(* A small packet-level simulation used as the unit kernel for the
   simulation-driven figures: 4 flows, two of [base] and two of [other],
   4 simulated seconds. *)
let short_sim_config ?(seed = 1) ?(base = "cubic") ~other () =
  let rate_bps = Sim_engine.Units.mbps 20.0 in
  let rtt = Sim_engine.Units.ms 20.0 in
  Tcpflow.Experiment.config
    ~warmup:(Sim_engine.Units.seconds 1.0)
    ~seed ~rate_bps
    ~buffer_bytes:(Tcpflow.Experiment.buffer_bytes_of_bdp ~rate_bps ~rtt ~bdp:3.0)
    ~duration:(Sim_engine.Units.seconds 4.0)
    [
      Tcpflow.Experiment.flow_config ~base_rtt:rtt base;
      Tcpflow.Experiment.flow_config ~base_rtt:rtt base;
      Tcpflow.Experiment.flow_config ~base_rtt:rtt other;
      Tcpflow.Experiment.flow_config ~base_rtt:rtt other;
    ]

let short_sim ~other () =
  ignore (Tcpflow.Experiment.run (short_sim_config ~other ()))

let short_fluid ~kind () =
  let rtt = Sim_engine.Units.ms 40.0 in
  let capacity_bps = Sim_engine.Units.mbps 100.0 in
  let config =
    {
      Fluidsim.Fluid_sim.default_config with
      capacity_bps;
      buffer_bytes =
        Sim_engine.Units.scale 5.0
          (Sim_engine.Units.bdp_bytes ~rate_bps:capacity_bps ~rtt);
      flows =
        List.init 10 (fun i ->
            {
              Fluidsim.Fluid_sim.kind =
                (if i < 5 then Fluidsim.Fluid_sim.Cubic else kind);
              rtt;
            });
      duration = Sim_engine.Units.seconds 10.0;
      warmup = Sim_engine.Units.seconds 2.0;
    }
  in
  ignore (Fluidsim.Fluid_sim.run config)

(* Substrate kernels, named so the allocation gates below can reuse the
   exact workloads the micro section measures. *)
let event_queue_1k () =
  let q = Sim_engine.Event_queue.create () in
  for i = 0 to 999 do
    ignore
      (Sim_engine.Event_queue.add q
         ~time:(float_of_int ((i * 7919) mod 1000))
         ignore)
  done;
  while Option.is_some (Sim_engine.Event_queue.pop q) do
    ()
  done

let windowed_max_filter () =
  let f = Cca.Windowed_filter.Max_rounds.create ~window:10 in
  for round = 0 to 999 do
    Cca.Windowed_filter.Max_rounds.update f ~round (float_of_int (round mod 97));
    ignore (Cca.Windowed_filter.Max_rounds.get f)
  done

(* The bottleneck's share of the packet cycle: take a handle, queue it,
   dequeue it and release it. The handle table lives as long as a run's
   dumbbell does, so it is made once here, not per kernel run. *)
let bench_packets = Netsim.Packet.create_table ()

let droptail_queue_1k () =
  let q =
    Netsim.Droptail_queue.create ~packets:bench_packets
      ~capacity_bytes:1_500_000 ()
  in
  for seq = 0 to 999 do
    ignore
      (Netsim.Droptail_queue.enqueue q
         (Netsim.Packet.take bench_packets ~flow:(seq mod 8) ~seq ~size:1500
            ~retransmit:false ~sent_time:0.0 ~delivered:0.0
            ~delivered_time:0.0))
  done;
  while not (Netsim.Droptail_queue.is_empty q) do
    Netsim.Packet.release bench_packets (Netsim.Droptail_queue.dequeue_exn q)
  done

(* One Test.make per paper artifact: the figure's computational kernel. *)
let figure_tests =
  [
    Test.make ~name:"table1/notation"
      (Staged.stage (fun () ->
           ignore (Format.asprintf "%a" Ccmodel.Notation.pp_table ())));
    Test.make ~name:"fig01/ware-model-sweep"
      (Staged.stage (fun () ->
           List.iter
             (fun bdp ->
               let params =
                 Ccmodel.Params.of_paper_units ~mbps:50.0 ~buffer_bdp:bdp
                   ~rtt_ms:40.0
               in
               ignore
                 (Ccmodel.Ware.bbr_fraction ~params ~n_bbr:1
                    ~duration:(Sim_engine.Units.seconds 120.0)))
             buffer_grid));
    Test.make ~name:"fig03/two-flow-solve-sweep"
      (Staged.stage (fun () ->
           List.iter
             (fun bdp ->
               let params =
                 Ccmodel.Params.of_paper_units ~mbps:50.0 ~buffer_bdp:bdp
                   ~rtt_ms:40.0
               in
               ignore (Ccmodel.Two_flow.solve params))
             buffer_grid));
    Test.make ~name:"fig04/multi-flow-interval"
      (Staged.stage (fun () ->
           ignore
             (Ccmodel.Multi_flow.per_flow_bbr_interval params_10bdp
                ~n_cubic:10 ~n_bbr:10)));
    Test.make ~name:"fig05/predict-all-mixes"
      (Staged.stage (fun () ->
           for k = 1 to 19 do
             ignore
               (Ccmodel.Multi_flow.predict params_10bdp ~n_cubic:(20 - k)
                  ~n_bbr:k ~sync:Ccmodel.Multi_flow.Synchronized)
           done));
    Test.make ~name:"fig06/nash-region"
      (Staged.stage (fun () ->
           ignore (Ccmodel.Ne.nash_region params_10bdp ~n:10)));
    Test.make ~name:"fig07/short-sim-vivace"
      (Staged.stage (short_sim ~other:"vivace"));
    Test.make ~name:"fig08/short-sim-bbr" (Staged.stage (short_sim ~other:"bbr"));
    Test.make ~name:"fig09/nash-region-50flows"
      (Staged.stage (fun () ->
           List.iter
             (fun bdp ->
               let params =
                 Ccmodel.Params.of_paper_units ~mbps:100.0 ~buffer_bdp:bdp
                   ~rtt_ms:40.0
               in
               ignore (Ccmodel.Ne.nash_region params ~n:50))
             buffer_grid));
    Test.make ~name:"fig10/grouped-ne-check"
      (Staged.stage (fun () ->
           let payoffs =
             {
               Ccgame.Grouped_game.u_cubic =
                 (fun ~group ~counts ->
                   10.0 /. float_of_int (1 + group + counts.(group)));
               u_bbr =
                 (fun ~group ~counts ->
                   8.0 /. float_of_int (1 + group + counts.(group)));
             }
           in
           ignore
             (Ccgame.Grouped_game.equilibria ~sizes:[| 5; 5; 5 |] payoffs)));
    Test.make ~name:"fig11/short-fluid-bbr2"
      (Staged.stage (short_fluid ~kind:Fluidsim.Fluid_sim.Bbr2));
    Test.make ~name:"fig12/ultra-deep-solve"
      (Staged.stage (fun () ->
           let params =
             Ccmodel.Params.of_paper_units ~mbps:50.0 ~buffer_bdp:250.0
               ~rtt_ms:40.0
           in
           ignore (Ccmodel.Two_flow.solve params)));
  ]

let substrate_tests =
  [
    Test.make ~name:"engine/event-queue-1k" (Staged.stage event_queue_1k);
    Test.make ~name:"engine/rng-splitmix"
      (Staged.stage (fun () ->
           let rng = Sim_engine.Rng.create 7 in
           for _ = 1 to 1000 do
             ignore (Sim_engine.Rng.float rng 1.0)
           done));
    Test.make ~name:"cca/windowed-max-filter"
      (Staged.stage windowed_max_filter);
    Test.make ~name:"netsim/droptail-queue" (Staged.stage droptail_queue_1k);
    Test.make ~name:"tcpflow/short-sim-cubic-v-bbr"
      (Staged.stage (short_sim ~other:"bbr"));
    Test.make ~name:"fluid/short-10flows"
      (Staged.stage (short_fluid ~kind:Fluidsim.Fluid_sim.Bbr));
  ]

(* The analytic-backend section: the SoA fluid kernel under its
   post-rewrite name (the baseline block in BENCH_fluid.json keeps the
   pre-rewrite numbers for the before/after pair) and the ODE model's
   2-flow competition cell. *)
let ode_2flow () =
  let rtt = Sim_engine.Units.ms 40.0 in
  let capacity_bps = Sim_engine.Units.mbps 100.0 in
  let config =
    {
      Fluidsim.Ode_model.default_config with
      capacity_bps;
      buffer_bytes =
        Sim_engine.Units.scale 10.0
          (Sim_engine.Units.bdp_bytes ~rate_bps:capacity_bps ~rtt);
      flows =
        [
          { Fluidsim.Fluid_sim.kind = Fluidsim.Fluid_sim.Cubic; rtt };
          { Fluidsim.Fluid_sim.kind = Fluidsim.Fluid_sim.Bbr; rtt };
        ];
      duration = Sim_engine.Units.seconds 30.0;
      warmup = Sim_engine.Units.seconds 10.0;
    }
  in
  ignore (Fluidsim.Ode_model.run config)

let fluid_tests =
  [
    Test.make ~name:"fluid/short-10flows-soa"
      (Staged.stage (short_fluid ~kind:Fluidsim.Fluid_sim.Bbr));
    Test.make ~name:"ode/2flow-competition" (Staged.stage ode_2flow);
  ]

(* --- Adoption-dynamics kernels --------------------------------------- *)

(* 1000 generations of the allocation-free step kernel over 64 classes:
   ns_per_run / 1000 is the generations/sec figure for the evolve loop's
   compute half (payoff evaluation, the simulation half, is measured by
   the backend sections above). The arrays live across generations like
   the scratch buffers in Evolve.run. *)
let evolve_steps ~dyn () =
  let n = 64 in
  let src = Array.init n (fun i -> 0.1 +. (0.8 *. float_of_int i /. 64.0)) in
  let dst = Array.make n 0.0 in
  let adv =
    Array.init n (fun i -> (float_of_int (i mod 7) /. 3.0) -. 1.0)
  in
  for _ = 1 to 1000 do
    Ccgame.Evolve.step_into dyn ~rate:0.5 ~adv ~src ~dst;
    Array.blit dst 0 src 0 n
  done

(* A full trajectory against an analytic payoff landscape (interior NE at
   s = 0.6 in every class): measures the run loop's bookkeeping around the
   kernel — residuals, state snapshots, convergence detection. *)
let evolve_trajectory () =
  let payoffs =
    {
      Ccgame.Evolve.u_cubic = (fun ~cls ~shares -> 1.0 +. (0.1 *. float_of_int cls) +. shares.(cls));
      u_bbr = (fun ~cls ~shares:_ -> 1.6 +. (0.1 *. float_of_int cls));
    }
  in
  ignore
    (Ccgame.Evolve.run Ccgame.Evolve.Replicator ~rate:0.5 ~max_generations:200
       payoffs
       ~init:(Array.make 8 0.3))

let evolve_tests =
  [
    Test.make ~name:"evolve/step-1k-replicator"
      (Staged.stage (evolve_steps ~dyn:Ccgame.Evolve.Replicator));
    Test.make ~name:"evolve/step-1k-best-response"
      (Staged.stage (evolve_steps ~dyn:Ccgame.Evolve.Best_response));
    Test.make ~name:"evolve/step-1k-logit"
      (Staged.stage (evolve_steps ~dyn:(Ccgame.Evolve.Logit 0.1)));
    Test.make ~name:"evolve/run-trajectory-8class"
      (Staged.stage evolve_trajectory);
  ]

(* --- Workload / churn kernels ---------------------------------------- *)

(* Schedule generation alone: the deterministic seed-split generator over
   the web-object mix, ~2400 transfers per run. *)
let schedule_gen () =
  ignore
    (Workload.Schedule.generate_seeded
       ~arrival:(Workload.Arrival.Poisson { rate_per_s = 40.0 })
       ~sizes:Workload.Dist.web_objects ~horizon_s:60.0 ~seed:11 ())

(* A 6 s open-loop churn run on an otherwise idle 20 Mbps dumbbell at ~40%
   offered load (~70 transfers through a handful of pooled slots): the
   lifecycle layer's whole hot path — arrival attach, slot rebind,
   completion teardown — plus the transport underneath it. *)
let churn_run () =
  let sim = Sim_engine.Sim.create ~seed:3 () in
  let rate_bps = Sim_engine.Units.mbps 20.0 in
  let net =
    Netsim.Dumbbell.create ~sim ~rate_bps ~buffer_bytes:60_000 ~flows:[] ()
  in
  let schedule =
    Workload.Schedule.generate_seeded
      ~arrival:
        (Workload.Arrival.poisson_of_load ~load:0.4
           ~rate_bps:(rate_bps :> float) ~mean_size_bytes:50_000.0)
      ~sizes:(Workload.Dist.Uniform { lo_bytes = 20_000; hi_bytes = 80_000 })
      ~horizon_s:6.0 ~seed:11 ()
  in
  let churn =
    Tcpflow.Churn.create ~net ~base_flow:0 ~cca:"cubic"
      ~base_rtt:(Sim_engine.Units.ms 20.0) ~schedule ()
  in
  Sim_engine.Sim.run ~until:8.0 sim;
  Tcpflow.Churn.teardown churn

let workload_tests =
  [
    Test.make ~name:"workload/schedule-gen-60s-web"
      (Staged.stage schedule_gen);
    Test.make ~name:"workload/churn-6s-40pct" (Staged.stage churn_run);
  ]

(* Pre-rewrite numbers for fluid/short-10flows (AoS fluid simulator,
   same kernel, same machine class) so BENCH_fluid.json carries its own
   before/after pair. *)
let fluid_baseline =
  [ ("bench fluid/short-10flows-pre-soa", 18_615_018.921, 8_673_185.907) ]

(* The packet-level short-sim kernels before calendar lanes were keyed by
   delay and segment state moved into a ring (median of five runs,
   alternated with the current tree on one machine), so BENCH_micro.json
   carries its own before/after pair. *)
let micro_baseline =
  [
    ( "bench fig07/short-sim-vivace-pre-delay-lanes",
      19_144_101.686, 772_385.107 );
    ("bench fig08/short-sim-bbr-pre-delay-lanes", 17_347_423.167, 723_461.412);
    ( "bench tcpflow/short-sim-cubic-v-bbr-pre-delay-lanes",
      17_521_631.275, 723_461.951 );
  ]

(* --- 11-cell analytic sweep ------------------------------------------ *)

module B = Sim_backend

let sweep_spec ~buffer_bdp ccas =
  let rate_bps = Sim_engine.Units.mbps 100.0 in
  let rtt = Sim_engine.Units.ms 40.0 in
  B.spec
    ~warmup:(Sim_engine.Units.seconds 20.0)
    ~seed:1 ~rate_bps
    ~buffer_bytes:
      (Sim_engine.Units.scale buffer_bdp
         (Sim_engine.Units.bdp_bytes ~rate_bps ~rtt))
    ~duration:(Sim_engine.Units.seconds 60.0)
    (List.map (fun cca -> { B.cca; rtt }) ccas)

(* A fluidgrid-sized sweep — the single-CCA diagonals plus the
   competition cells a `repro fluidgrid` evaluation visits — used as the
   unit of work for the analytic backends' sweep alloc gates. *)
let sweep_specs =
  [|
    sweep_spec ~buffer_bdp:1.0 [ "cubic" ];
    sweep_spec ~buffer_bdp:1.0 [ "bbr" ];
    sweep_spec ~buffer_bdp:1.0 [ "bbr2" ];
    sweep_spec ~buffer_bdp:1.0 [ "cubic"; "bbr" ];
    sweep_spec ~buffer_bdp:2.0 [ "cubic"; "bbr" ];
    sweep_spec ~buffer_bdp:10.0 [ "cubic"; "bbr" ];
    sweep_spec ~buffer_bdp:25.0 [ "cubic"; "bbr" ];
    sweep_spec ~buffer_bdp:0.5 [ "cubic"; "bbr2" ];
    sweep_spec ~buffer_bdp:1.0 [ "cubic"; "bbr2" ];
    sweep_spec ~buffer_bdp:10.0 [ "cubic"; "cubic" ];
    sweep_spec ~buffer_bdp:10.0 [ "bbr"; "bbr" ];
  |]

let run_sweep backend () =
  Array.iter (fun s -> ignore (B.run_exn backend s)) sweep_specs

(* --- Allocation gates ------------------------------------------------- *)

(* Committed minor-words-per-run ceilings for the allocation-sensitive
   kernels, set from the checked-in BENCH_micro.json / BENCH_fluid.json
   numbers plus ~10% headroom. Unlike run times, allocation counts are
   deterministic, so the gate holds on noisy CI runners: a breach means a
   new per-operation allocation reached a hot path (the A1 pass in
   tool/simlint sees the construct; this sees the total). Raising a
   ceiling is a reviewed decision, like re-blessing a golden CSV. *)
let alloc_gates =
  [
    ("engine/event-queue-1k", 50, 13_400.0, event_queue_1k);
    ("cca/windowed-max-filter", 50, 2_300.0, windowed_max_filter);
    ("netsim/droptail-queue", 50, 590.0, droptail_queue_1k);
    ("fig08/short-sim-bbr", 3, 171_000.0, short_sim ~other:"bbr");
    ("fig11/short-sim-bbr2", 3, 168_000.0, short_sim ~other:"bbr2");
    ("fig07/short-sim-vivace", 3, 258_000.0, short_sim ~other:"vivace");
    ( "fluid/short-10flows-soa", 3, 5_000.0,
      short_fluid ~kind:Fluidsim.Fluid_sim.Bbr );
    ("ode/2flow-competition", 3, 3_000.0, ode_2flow);
    (* Each cell runs through [Sim_backend.run_exn] on its own SoA arena
       with an allocation-free step loop: the fluid budget covers the
       per-spec arenas and result records — anything larger means an
       allocation crept inside the step loop. The ODE budget also holds
       the rate trajectory its stability metrics read, one row per 50 ms
       sample (1,200 rows at the 60 s horizon), which scales with the
       horizon, not with the steps taken. *)
    ("fluid/11cell-sweep", 3, 7_000.0, run_sweep B.fluid);
    ("ode/11cell-sweep", 3, 71_000.0, run_sweep B.ode);
    (* The step kernel itself is allocation-free; the budget covers the
       three 64-slot scratch arrays the harness sets up per run. *)
    ( "evolve/step-1k-logit", 50, 1_000.0,
      evolve_steps ~dyn:(Ccgame.Evolve.Logit 0.1) );
    (* Steady-state churn reuses slots, and a slot reuses its segment
       ring and callbacks, so nothing the packet path allocates outlives a
       minor GC. The budget is per-run setup (sim + dumbbell + schedule),
       per-tenant CC state, and short-lived float boxes, which do scale
       with segments sent: every CCA cwnd/pacing query and on_send boxes
       one float ([Cc_types.t]'s closures return and take them boxed). A
       breach means the rebind/ACK path started allocating more per
       packet. *)
    ("workload/churn-6s-40pct", 3, 56_000.0, churn_run);
  ]

(* Minor words per packet the bottleneck delivers, from the end of warm-up
   to the horizon of a short sim whose four flows all run [cca]. The
   per-run gates above cannot see one 2-word box per packet: that is about
   13k words of a ~155k-word run. Here it moves the reading by 2. *)
let words_per_packet cca =
  let live =
    Tcpflow.Experiment.setup (short_sim_config ~base:cca ~other:cca ())
  in
  let sim = Tcpflow.Experiment.live_sim live in
  let link = Netsim.Dumbbell.link (Tcpflow.Experiment.live_net live) in
  Sim_engine.Sim.run ~until:1.0 sim;
  let packets = Netsim.Link.delivered_packets link in
  let before = Gc.minor_words () in
  Sim_engine.Sim.run ~until:4.0 sim;
  let words = Gc.minor_words () -. before in
  let packets = Netsim.Link.delivered_packets link - packets in
  ignore (Tcpflow.Experiment.finish live);
  words /. float_of_int packets

(* Committed words-per-delivered-packet ceilings: the measured value plus
   one word. *)
let packet_gates =
  [ ("packet/all-cubic", 11.9, "cubic"); ("packet/all-bbr", 19.8, "bbr") ]

let run_alloc_gates () =
  Printf.printf "==== Allocation gates (Gc.minor_words per run) ====\n";
  Printf.printf "%-28s %14s %14s  %s\n" "kernel" "words/run" "ceiling" "status";
  let failures = ref 0 in
  List.iter
    (fun (name, iters, ceiling, f) ->
      (* One warm-up run so pool/array growth and registry setup don't
         count against the steady-state budget. *)
      f ();
      let before = Gc.minor_words () in
      for _ = 1 to iters do
        f ()
      done;
      let words = (Gc.minor_words () -. before) /. float_of_int iters in
      let ok = words <= ceiling in
      if not ok then incr failures;
      Printf.printf "%-28s %14.1f %14.1f  %s\n%!" name words ceiling
        (if ok then "ok" else "FAIL"))
    alloc_gates;
  Printf.printf "%-28s %14s %14s  %s\n" "kernel" "words/packet" "ceiling"
    "status";
  List.iter
    (fun (name, ceiling, cca) ->
      (* A warm-up run, as above. *)
      ignore (words_per_packet cca);
      let words = words_per_packet cca in
      let ok = words <= ceiling in
      if not ok then incr failures;
      Printf.printf "%-28s %14.2f %14.2f  %s\n%!" name words ceiling
        (if ok then "ok" else "FAIL"))
    packet_gates;
  if !failures > 0 then begin
    Printf.printf
      "alloc-gate: %d kernel(s) over budget — a new allocation reached a hot \
       path, or the ceiling in bench/main.ml needs a reviewed bump\n"
      !failures;
    exit 1
  end;
  Printf.printf "alloc-gate: OK (%d kernels)\n"
    (List.length alloc_gates + List.length packet_gates)

(* --- CLI / env configuration ----------------------------------------- *)

let smoke =
  ref
    (match Sys.getenv_opt "REPRO_BENCH_SMOKE" with
    | Some ("1" | "true" | "yes") -> true
    | Some _ | None -> false)

let json_dir = ref (Sys.getenv_opt "REPRO_BENCH_JSON")
let alloc_gate = ref false

let () =
  let rec parse = function
    | [] -> ()
    | "--smoke" :: rest ->
      smoke := true;
      parse rest
    | "--json" :: dir :: rest ->
      json_dir := Some dir;
      parse rest
    | "--alloc-gate" :: rest ->
      alloc_gate := true;
      parse rest
    | arg :: _ ->
      Printf.eprintf
        "bench: unknown argument %s (expected --smoke, --json DIR, \
         --alloc-gate)\n"
        arg;
      exit 2
  in
  parse (List.tl (Array.to_list Sys.argv))

(* `--alloc-gate` replaces the benchmark sections entirely: run the gates,
   set the exit status, done — that is the make-check/CI entry point. *)
let () =
  if !alloc_gate then begin
    run_alloc_gates ();
    exit 0
  end

(* --- Bechamel sections ------------------------------------------------ *)

let estimate_of ols =
  match Analyze.OLS.estimates ols with Some [ est ] -> est | _ -> nan

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* Number formatting for JSON: finite floats only (nan/inf are not JSON). *)
let json_float v = if Float.is_finite v then Printf.sprintf "%.3f" v else "null"

(* DIR/BENCH_<section>.json: { "results": { name: { ns_per_run;
   minor_words_per_run } } }, keys sorted so the file is diffable.
   [baseline] adds a "baseline_pre_rewrite" object in the same row format
   for sections that track a before/after pair. *)
let write_bench_json ?(baseline = []) ~dir ~section rows =
  Sim_engine.Exec.mkdir_p dir;
  let path = Filename.concat dir (Printf.sprintf "BENCH_%s.json" section) in
  let oc = open_out path in
  Printf.fprintf oc "{\n  \"section\": \"%s\",\n  \"smoke\": %b,\n"
    (json_escape section) !smoke;
  Printf.fprintf oc
    "  \"units\": { \"ns_per_run\": \"nanoseconds\", \
     \"minor_words_per_run\": \"minor-heap words\" },\n";
  let print_rows rows =
    let n = List.length rows in
    List.iteri
      (fun i (name, ns, words) ->
        Printf.fprintf oc
          "    \"%s\": { \"ns_per_run\": %s, \"minor_words_per_run\": %s }%s\n"
          (json_escape name) (json_float ns) (json_float words)
          (if i = n - 1 then "" else ","))
      rows
  in
  if baseline <> [] then begin
    Printf.fprintf oc "  \"baseline_pre_rewrite\": {\n";
    print_rows baseline;
    Printf.fprintf oc "  },\n"
  end;
  Printf.fprintf oc "  \"results\": {\n";
  print_rows rows;
  Printf.fprintf oc "  }\n}\n";
  close_out oc;
  Printf.printf "wrote %s\n%!" path

let run_bechamel ?(baseline = []) ~section tests =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock; minor_allocated ] in
  let cfg =
    if !smoke then
      Benchmark.cfg ~limit:50 ~quota:(Time.second 0.1) ~stabilize:false
        ~compaction:false ()
    else
      Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~stabilize:false
        ~compaction:false ()
  in
  let test = Test.make_grouped ~name:"bench" ~fmt:"%s %s" tests in
  let raw = Benchmark.all cfg instances test in
  let nanos = Analyze.all ols Instance.monotonic_clock raw in
  let words = Analyze.all ols Instance.minor_allocated raw in
  let rows =
    (* Hash order is harmless: rows are sorted by name before printing. *)
    (* simlint: allow R1 *)
    Hashtbl.fold
      (fun name ols acc ->
        let minor =
          match Hashtbl.find_opt words name with
          | Some w -> estimate_of w
          | None -> nan
        in
        (name, estimate_of ols, minor) :: acc)
      nanos []
    |> List.sort compare
  in
  List.iter
    (fun (name, ns, minor) ->
      if ns >= 1e6 then
        Printf.printf "%-45s %12.3f ms/run %14.0f w/run\n%!" name (ns /. 1e6)
          minor
      else Printf.printf "%-45s %12.1f ns/run %14.0f w/run\n%!" name ns minor)
    rows;
  match !json_dir with
  | None -> ()
  | Some dir -> write_bench_json ~baseline ~dir ~section rows

(* --- Ablations ------------------------------------------------------- *)

let mbps_of bps = Sim_engine.Units.bps_to_mbps (Sim_engine.Units.bps bps)

(* DESIGN.md ablation: BBR's in-flight cap (ProbeBW cwnd gain). The paper's
   model assumes 2xBDP; its §5 discusses that reality sits between 1x and
   2x. *)
let ablation_bbr_cap () =
  Printf.printf "\n-- ablation: BBR ProbeBW cwnd gain (in-flight cap) --\n";
  Printf.printf "%6s %14s %14s\n" "gain" "bbr(Mbps)" "cubic(Mbps)";
  List.iter
    (fun gain ->
      Cca.Registry.register "bbr-cap" (fun ~mss ~rng ->
          Cca.Bbr.make ~probe_bw_cwnd_gain:gain ~variant:Cca.Bbr.V1 ~mss ~rng
            ());
      let summary =
        Experiments.Runs.mix ~ctx:Experiments.Common.quick ~mbps:50.0
          ~rtt_ms:40.0 ~buffer_bdp:8.0 ~n_cubic:1 ~other:"bbr-cap" ~n_other:1
          ()
      in
      Printf.printf "%6.2f %14.2f %14.2f\n%!" gain
        (mbps_of summary.per_flow_other_bps)
        (mbps_of summary.per_flow_cubic_bps))
    [ 1.0; 1.5; 2.0; 3.0 ]

(* CUBIC's TCP-friendly (Reno-tracking) region, competing against BBR. *)
let ablation_tcp_friendly () =
  Printf.printf "\n-- ablation: CUBIC TCP-friendly region (vs BBR, 3 BDP) --\n";
  Printf.printf "%6s %14s %14s\n" "on" "cubic(Mbps)" "bbr(Mbps)";
  List.iter
    (fun tcp_friendly ->
      Cca.Registry.register "cubic-tf" (fun ~mss ~rng:_ ->
          Cca.Cubic.make
            ~params:{ Cca.Cubic.default_params with tcp_friendly }
            ~mss ());
      let rate_bps = Sim_engine.Units.mbps 50.0 in
      let result =
        Tcpflow.Experiment.run
          (Tcpflow.Experiment.config
             ~warmup:(Sim_engine.Units.seconds 10.0)
             ~rate_bps
             ~buffer_bytes:
               (Tcpflow.Experiment.buffer_bytes_of_bdp ~rate_bps
                  ~rtt:(Sim_engine.Units.ms 40.0) ~bdp:3.0)
             ~duration:(Sim_engine.Units.seconds 40.0)
             [
               Tcpflow.Experiment.flow_config
                 ~base_rtt:(Sim_engine.Units.ms 40.0) "cubic-tf";
               Tcpflow.Experiment.flow_config
                 ~base_rtt:(Sim_engine.Units.ms 40.0) "bbr";
             ])
      in
      Printf.printf "%6b %14.2f %14.2f\n%!" tcp_friendly
        (mbps_of (Tcpflow.Experiment.mean_throughput_of_cca result "cubic-tf"))
        (mbps_of (Tcpflow.Experiment.mean_throughput_of_cca result "bbr")))
    [ true; false ]

(* DESIGN.md ablation: fluid-simulator CUBIC synchronization mode. *)
let ablation_fluid_sync () =
  Printf.printf
    "\n-- ablation: fluid CUBIC synchronization mode (5v5, 10 BDP) --\n";
  Printf.printf "%-14s %14s %14s\n" "mode" "bbr(Mbps)" "cubic(Mbps)";
  let rtt = Sim_engine.Units.ms 40.0 in
  let capacity_bps = Sim_engine.Units.mbps 100.0 in
  List.iter
    (fun (name, sync) ->
      let config =
        {
          Fluidsim.Fluid_sim.default_config with
          capacity_bps;
          buffer_bytes =
            Sim_engine.Units.scale 10.0
              (Sim_engine.Units.bdp_bytes ~rate_bps:capacity_bps ~rtt);
          flows =
            List.init 10 (fun i ->
                {
                  Fluidsim.Fluid_sim.kind =
                    (if i < 5 then Fluidsim.Fluid_sim.Cubic
                     else Fluidsim.Fluid_sim.Bbr);
                  rtt;
                });
          sync;
          duration = Sim_engine.Units.seconds 60.0;
          warmup = Sim_engine.Units.seconds 20.0;
        }
      in
      let result = Fluidsim.Fluid_sim.run config in
      Printf.printf "%-14s %14.2f %14.2f\n%!" name
        (mbps_of
           (Fluidsim.Fluid_sim.mean_bps_of_kind result Fluidsim.Fluid_sim.Bbr))
        (mbps_of
           (Fluidsim.Fluid_sim.mean_bps_of_kind result
              Fluidsim.Fluid_sim.Cubic)))
    [
      ("synchronized", Fluidsim.Fluid_sim.Synchronized);
      ("desynchronized", Fluidsim.Fluid_sim.Desynchronized);
      ("stochastic-0.5", Fluidsim.Fluid_sim.Stochastic 0.5);
    ]

(* --- Jobs scaling --------------------------------------------------- *)

(* Wall-clock of one fixed batch of independent simulations under growing
   worker counts: the speedup the figure drivers get from `--jobs`. *)
let scaling_jobs () =
  let n_sims = 16 in
  let configs =
    List.init n_sims (fun i ->
        short_sim_config ~seed:(i + 1)
          ~other:(if i mod 2 = 0 then "bbr" else "cubic")
          ())
  in
  Printf.printf "\n-- jobs scaling: %d independent 4 s simulations --\n" n_sims;
  Printf.printf "%6s %12s %10s\n" "jobs" "wall(s)" "speedup";
  let time jobs =
    (* Wall-clock on purpose: this measures the harness, not the model. *)
    let t0 = Unix.gettimeofday () in (* simlint: allow R1 *)
    ignore (Sim_engine.Exec.map_list ~jobs Tcpflow.Experiment.run configs);
    Unix.gettimeofday () -. t0 (* simlint: allow R1 *)
  in
  let job_counts =
    List.sort_uniq compare [ 1; 2; 4; Sim_engine.Exec.domain_count () ]
  in
  let base = ref nan in
  List.iter
    (fun jobs ->
      let dt = time jobs in
      if Float.is_nan !base then base := dt;
      Printf.printf "%6d %12.2f %9.2fx\n%!" jobs dt (!base /. dt))
    job_counts

let sections () =
  match Sys.getenv_opt "REPRO_BENCH_SECTIONS" with
  | None | Some "" ->
    [ "micro"; "fluid"; "evolve"; "workload"; "scaling"; "ablations" ]
  | Some s -> String.split_on_char ',' s

let () =
  let sections = sections () in
  let t0 = Unix.gettimeofday () in (* simlint: allow R1 *)
  if List.mem "micro" sections then begin
    Printf.printf "==== Bechamel micro-benchmarks ====\n%!";
    run_bechamel ~baseline:micro_baseline ~section:"micro"
      (figure_tests @ substrate_tests)
  end;
  if List.mem "fluid" sections then begin
    Printf.printf "==== Analytic-backend benchmarks ====\n%!";
    run_bechamel ~baseline:fluid_baseline ~section:"fluid" fluid_tests
  end;
  if List.mem "evolve" sections then begin
    Printf.printf "==== Adoption-dynamics benchmarks ====\n%!";
    run_bechamel ~section:"evolve" evolve_tests
  end;
  if List.mem "workload" sections then begin
    Printf.printf "==== Workload / churn benchmarks ====\n%!";
    run_bechamel ~section:"workload" workload_tests
  end;
  if List.mem "scaling" sections then begin
    Printf.printf "\n==== Parallel executor scaling ====\n%!";
    scaling_jobs ()
  end;
  if List.mem "ablations" sections then begin
    Printf.printf "\n==== Ablations ====\n%!";
    ablation_bbr_cap ();
    ablation_tcp_friendly ();
    ablation_fluid_sync ()
  end;
  Printf.printf "\ntotal bench time: %.1f s\n"
    (Unix.gettimeofday () -. t0 (* simlint: allow R1 *))
