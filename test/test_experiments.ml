open Experiments

(* --- Common --- *)

let test_catalog_complete () =
  let ids = Catalog.ids () in
  List.iter
    (fun id ->
      Alcotest.(check bool) (id ^ " present") true (List.mem id ids))
    [ "table1"; "fig01"; "fig03"; "fig04"; "fig05"; "fig06"; "fig07";
      "fig08"; "fig09"; "fig10"; "fig11"; "fig12"; "evolve"; "fluidgrid";
      "workload"; "ext-red"; "ext-utility"; "ext-internals"; "ext-2flow" ];
  Alcotest.(check int) "19 artifacts" 19 (List.length ids);
  Alcotest.(check int) "ids unique" (List.length ids)
    (List.length (List.sort_uniq compare ids))

let test_catalog_find () =
  Alcotest.(check bool) "find fig03" true (Option.is_some (Catalog.find "fig03"));
  Alcotest.(check bool) "find missing" true (Option.is_none (Catalog.find "fig99"))

let test_cells () =
  Alcotest.(check string) "float" "3.14" (Common.cell 3.14159);
  Alcotest.(check string) "nan" "-" (Common.cell nan);
  Alcotest.(check string) "int" "42" (Common.cell_int 42)

let test_mean () =
  Alcotest.(check (float 1e-9)) "mean" 2.0 (Common.mean [ 1.0; 2.0; 3.0 ]);
  Alcotest.(check bool) "empty nan" true (Float.is_nan (Common.mean []))

let test_grids () =
  let quick = Common.buffer_grid Common.Quick ~max:30.0 in
  Alcotest.(check bool) "quick nonempty" true (List.length quick >= 5);
  Alcotest.(check bool) "bounded" true (List.for_all (fun b -> b <= 30.0) quick);
  let full = Common.buffer_grid Common.Full ~max:30.0 in
  Alcotest.(check bool) "full finer" true
    (List.length full > List.length quick);
  let counts = Common.count_grid Common.Quick ~n:10 in
  Alcotest.(check bool) "contains endpoints" true
    (List.mem 0 counts && List.mem 10 counts);
  Alcotest.(check int) "full counts" 11
    (List.length (Common.count_grid Common.Full ~n:10))

let test_csv () =
  let table =
    {
      Common.id = "t";
      title = "x";
      header = [ "a"; "b" ];
      rows = [ [ "1"; "va,l" ]; [ "2"; "w" ] ];
      notes = [];
    }
  in
  let csv = Common.csv_of_table table in
  Alcotest.(check string) "escaped csv" "a,b\n1,\"va,l\"\n2,w\n" csv

let test_write_csv () =
  let dir = Filename.temp_file "repro" "" in
  Sys.remove dir;
  let table =
    { Common.id = "unit"; title = "t"; header = [ "x" ]; rows = [ [ "1" ] ];
      notes = [] }
  in
  let path = Common.write_csv ~dir table in
  Alcotest.(check bool) "file exists" true (Sys.file_exists path);
  Sys.remove path;
  Sys.rmdir dir

(* [repro run ... --out a/b] with [a] absent: the writer creates every
   missing parent before it opens the file. *)
let test_write_csv_nested () =
  let root = Filename.temp_file "repro" "" in
  Sys.remove root;
  let parent = Filename.concat root "a" in
  let dir = Filename.concat parent "b" in
  let table =
    { Common.id = "unit"; title = "t"; header = [ "x" ]; rows = [ [ "1" ] ];
      notes = [] }
  in
  let path = Common.write_csv ~dir table in
  Alcotest.(check string) "path" (Filename.concat dir "unit.csv") path;
  Alcotest.(check bool) "file exists" true (Sys.file_exists path);
  Sys.remove path;
  List.iter Sys.rmdir [ dir; parent; root ]

let test_print_table_no_exn () =
  let table =
    { Common.id = "unit"; title = "t"; header = [ "col" ];
      rows = [ [ "value" ] ]; notes = [ "note" ] }
  in
  let rendered = Format.asprintf "%a" Common.print_table table in
  Alcotest.(check bool) "rendered" true (String.length rendered > 0)

(* --- Ne_search --- *)

let synthetic_payoff k =
  (* u_cubic rises, u_bbr falls; fair share 10 crossed at k = 8. *)
  (6.0 +. (0.5 *. float_of_int k), 18.0 -. float_of_int k)

let test_observed_equilibria_finds_crossing () =
  let ne =
    Ne_search.observed_equilibria ~n:20 ~fair_bps:10.0
      ~payoff:synthetic_payoff ~window:3 ()
  in
  Alcotest.(check bool) "found" true (ne <> []);
  List.iter
    (fun k ->
      Alcotest.(check bool)
        (Printf.sprintf "near crossing (%d)" k)
        true
        (k >= 5 && k <= 11))
    ne

let test_observed_equilibria_all_bbr () =
  (* BBR always above fair share: NE at k = n. *)
  let payoff k = (1.0, 50.0 -. float_of_int k) in
  let ne =
    Ne_search.observed_equilibria ~n:10 ~fair_bps:10.0 ~payoff ~window:2 ()
  in
  Alcotest.(check (list int)) "all-bbr" [ 10 ] ne

let test_observed_equilibria_all_cubic () =
  (* BBR never reaches fair share and CUBIC always better: NE at k = 0. *)
  let payoff _ = (9.0, 5.0) in
  let ne =
    Ne_search.observed_equilibria ~n:10 ~fair_bps:10.0 ~payoff ~window:2 ()
  in
  Alcotest.(check bool) "contains all-cubic" true (List.mem 0 ne)

(* --- Model-only figure drivers (fast) --- *)

let test_table1_driver () =
  let t = Table1.run (Common.ctx Common.Quick) in
  Alcotest.(check int) "14 rows" 14 (List.length t.Common.rows);
  Alcotest.(check string) "id" "table1" t.Common.id

let test_fig06_driver () =
  let t = Fig06.run (Common.ctx Common.Quick) in
  Alcotest.(check int) "10 rows" 10 (List.length t.Common.rows);
  Alcotest.(check bool) "has NE note" true (t.Common.notes <> [])

let test_fig06_points_monotone () =
  let points = Fig06.points () in
  let rec pairwise = function
    | a :: (b :: _ as rest) ->
      Alcotest.(check bool) "per-flow decreasing" true
        (b.Fig06.bbr_per_flow_sync_bps
        <= a.Fig06.bbr_per_flow_sync_bps +. 1.0);
      pairwise rest
    | _ -> ()
  in
  (* Ignore the all-BBR endpoint, which snaps to fair share by definition. *)
  pairwise (List.filter (fun p -> p.Fig06.n_bbr < 10) points)

let test_runs_config () =
  let config =
    Runs.config ~mode:Common.Quick ~mbps:100.0 ~rtt_ms:40.0 ~buffer_bdp:5.0
      ~flows:[ Tcpflow.Experiment.flow_config "cubic" ]
      ~seed:7 ()
  in
  Alcotest.(check (float 1.0)) "rate" 100e6
    (config.Tcpflow.Experiment.rate_bps :> float);
  Alcotest.(check int) "buffer 5 bdp" 2_500_000
    config.Tcpflow.Experiment.buffer_bytes;
  Alcotest.(check int) "seed" 7 config.Tcpflow.Experiment.seed

let test_fig09_helpers () =
  Alcotest.(check string) "observed fmt" "3/5"
    (Fig09.string_of_observed [ 3; 5 ]);
  Alcotest.(check string) "empty" "-" (Fig09.string_of_observed []);
  Alcotest.(check int) "quick flows" 20 (Fig09.flows_of_mode Common.Quick);
  Alcotest.(check int) "full flows" 50 (Fig09.flows_of_mode Common.Full)

let test_fig10_threshold_profile () =
  Alcotest.(check (array int)) "0 cubic" [| 10; 10; 10 |]
    (Fig10.threshold_profile 0);
  Alcotest.(check (array int)) "15 cubic: shortest groups first"
    [| 0; 5; 10 |] (Fig10.threshold_profile 15);
  Alcotest.(check (array int)) "all cubic" [| 0; 0; 0 |]
    (Fig10.threshold_profile 30)

(* --- Fig10 best-response convergence flag --- *)

let test_fig10_br_converges_on_dominant () =
  (* CUBIC dominant in group 0, BBR dominant in group 1: best response
     walks straight to the threshold profile and reports convergence. *)
  let payoffs =
    {
      Ccgame.Grouped_game.u_cubic =
        (fun ~group ~counts:_ -> if group = 0 then 10.0 else 1.0);
      u_bbr = (fun ~group ~counts:_ -> if group = 0 then 1.0 else 10.0);
    }
  in
  let counts, converged =
    Fig10.best_response_fixpoint ~sizes:[| 2; 2 |] ~payoffs ~start:[| 2; 0 |]
      ()
  in
  Alcotest.(check bool) "converged" true converged;
  Alcotest.(check (array int)) "threshold NE" [| 0; 2 |] counts

let test_fig10_br_detects_cycle () =
  (* Matching pennies over two one-flow groups: group 0 wants to match
     group 1's CCA, group 1 wants to mismatch. Best response chases its
     tail forever (00 -> 01 -> 11 -> 10 -> 00 ...), which the pre-fix code
     silently reported as a fixpoint when the step cap fired. *)
  let payoffs =
    {
      Ccgame.Grouped_game.u_cubic =
        (fun ~group ~counts ->
          if group = 0 then if counts.(1) = 0 then 1.0 else 0.0
          else if counts.(0) = 1 then 1.0
          else 0.0);
      u_bbr =
        (fun ~group ~counts ->
          if group = 0 then if counts.(1) = 1 then 1.0 else 0.0
          else if counts.(0) = 0 then 1.0
          else 0.0);
    }
  in
  let counts, converged =
    Fig10.best_response_fixpoint ~max_steps:40 ~sizes:[| 1; 1 |] ~payoffs
      ~start:[| 0; 0 |] ()
  in
  Alcotest.(check bool) "non-convergence detected" false converged;
  Array.iter
    (fun k ->
      Alcotest.(check bool) "terminal counts in range" true (k >= 0 && k <= 1))
    counts;
  (* And no profile of the cycle passes the NE check, so find_ne-style
     callers must not fall back to the capped terminal. *)
  Alcotest.(check (list (array int))) "no NE exists" []
    (Ccgame.Grouped_game.equilibria ~sizes:[| 1; 1 |] payoffs)

(* --- Runs.run_specs --- *)

module B = Sim_backend

let mk_spec ?warmup ~mbps ~rtt_ms ~buffer_bdp ~duration ~seed ccas =
  let rate_bps = Sim_engine.Units.mbps mbps in
  let rtt = Sim_engine.Units.ms rtt_ms in
  B.spec ?warmup ~seed ~rate_bps
    ~buffer_bytes:
      (Sim_engine.Units.scale buffer_bdp
         (Sim_engine.Units.bdp_bytes ~rate_bps ~rtt))
    ~duration:(Sim_engine.Units.seconds duration)
    (List.map (fun cca -> { B.cca; rtt }) ccas)

(* Byte-level equality is the contract under test, so these tests marshal
   directly rather than through the Exec cache. *)
let bytes v = Marshal.to_string v [] (* simlint: allow R2 *)

(* Each distinct cache miss is one worker-pool job, so [repro]'s
   "N simulated" counts specs even when they all share one shape (flow
   count and horizon). *)
let test_run_specs_one_job_per_miss () =
  let specs =
    List.map
      (fun buffer_bdp ->
        mk_spec ~mbps:50.0 ~rtt_ms:40.0 ~buffer_bdp ~duration:8.0 ~seed:1
          [ "cubic"; "bbr" ])
      [ 1.0; 2.0; 3.0; 4.0; 5.0 ]
  in
  let before = (Sim_engine.Exec.counters ()).simulations in
  ignore
    (Runs.run_specs (Common.ctx Common.Quick) B.fluid specs : B.outcome list);
  Alcotest.(check int) "one job per distinct spec" (List.length specs)
    ((Sim_engine.Exec.counters ()).simulations - before)

(* The differential-grid cells the analytic backends are calibrated on. *)
let fluid_grid_specs =
  let warmup = Sim_engine.Units.seconds 5.0 in
  let singles =
    List.map
      (fun cca ->
        mk_spec ~warmup ~mbps:50.0 ~rtt_ms:40.0 ~buffer_bdp:1.0 ~duration:20.0
          ~seed:1 [ cca ])
      Fluidsim.Fluid_sim.supported_ccas
  in
  let pairs =
    List.concat_map
      (fun buffer_bdp ->
        List.map
          (fun ccas ->
            mk_spec ~warmup ~mbps:100.0 ~rtt_ms:40.0 ~buffer_bdp
              ~duration:20.0 ~seed:1 ccas)
          [ [ "cubic"; "bbr" ]; [ "cubic"; "bbr2" ] ])
      [ 1.0; 10.0 ]
  in
  singles @ pairs

let test_run_specs_jobs_invariant () =
  let run jobs =
    bytes
      (Runs.run_specs (Common.ctx ~jobs Common.Quick) B.fluid
         fluid_grid_specs)
  in
  let reference = run 1 in
  List.iter
    (fun jobs ->
      Alcotest.(check bool)
        (Printf.sprintf "jobs %d = sequential" jobs)
        true
        (String.equal reference (run jobs)))
    [ 2; 3 ]

let test_run_specs_memo_dedupes () =
  let rtt = Sim_engine.Units.ms 40.0 in
  let capacity_bps = Sim_engine.Units.mbps 50.0 in
  let spec cca =
    Sim_backend.spec ~rate_bps:capacity_bps
      ~buffer_bytes:
        (Sim_engine.Units.scale 2.0
           (Sim_engine.Units.bdp_bytes ~rate_bps:capacity_bps ~rtt))
      ~duration:(Sim_engine.Units.seconds 10.0)
      ~warmup:(Sim_engine.Units.seconds 2.0)
      [ { Sim_backend.cca; rtt } ]
  in
  let ctx = Common.ctx Common.Quick in
  let simulated f =
    let before = (Sim_engine.Exec.counters ()).simulations in
    let v = f () in
    (v, (Sim_engine.Exec.counters ()).simulations - before)
  in
  let outcomes, first_batch =
    simulated (fun () ->
        Runs.run_specs ctx Sim_backend.ode
          [ spec "cubic"; spec "bbr"; spec "cubic" ])
  in
  Alcotest.(check int) "order-preserving length" 3 (List.length outcomes);
  Alcotest.(check int) "duplicates run once" 2 first_batch;
  Alcotest.(check bool) "repeats share the outcome" true
    (List.nth outcomes 0 = List.nth outcomes 2);
  let again, second_batch =
    simulated (fun () -> Runs.run_specs ctx Sim_backend.ode [ spec "bbr" ])
  in
  Alcotest.(check int) "a repeat in the ctx runs nothing" 0 second_batch;
  Alcotest.(check bool) "the store returns the same outcome" true
    (List.nth outcomes 1 = List.hd again);
  let derived, third_batch =
    simulated (fun () ->
        Runs.run_specs (Common.sequential ctx) Sim_backend.ode
          [ spec "cubic" ])
  in
  Alcotest.(check int) "a repeat through Common.sequential runs nothing" 0
    third_batch;
  Alcotest.(check bool) "the derived ctx shares the store" true
    (List.nth outcomes 0 = List.hd derived)

(* --- the evolve driver --- *)

let test_adoption_jobs_deterministic () =
  (* The acceptance property of the sharding design: trajectories are
     byte-identical, and each distinct spec is simulated once, for any
     --jobs. Tiny grid (ODE backend, no packet spot checks, few
     generations) to keep the two runs fast. *)
  let table jobs =
    let before = (Sim_engine.Exec.counters ()).simulations in
    let csv =
      Common.csv_of_table
        (Adoption.run_with ~backend:Sim_backend.ode ~spot_checks:0
           ~max_generations:6
           (Common.ctx ~jobs Common.Quick))
    in
    (csv, (Sim_engine.Exec.counters ()).simulations - before)
  in
  let csv1, simulated1 = table 1 in
  let csv3, simulated3 = table 3 in
  Alcotest.(check string) "byte-identical across jobs" csv1 csv3;
  Alcotest.(check int) "same simulations across jobs" simulated1 simulated3

let test_fig12_regimes () =
  Alcotest.(check string) "shallow" "shallow"
    (Fig12.regime_name Ccmodel.Two_flow.Shallow);
  Alcotest.(check string) "valid" "cwnd-limited"
    (Fig12.regime_name Ccmodel.Two_flow.Valid);
  Alcotest.(check string) "deep" "not-cwnd-limited"
    (Fig12.regime_name Ccmodel.Two_flow.Ultra_deep)

let tests =
  [
    Alcotest.test_case "catalog complete" `Quick test_catalog_complete;
    Alcotest.test_case "catalog find" `Quick test_catalog_find;
    Alcotest.test_case "cells" `Quick test_cells;
    Alcotest.test_case "mean" `Quick test_mean;
    Alcotest.test_case "grids" `Quick test_grids;
    Alcotest.test_case "csv escaping" `Quick test_csv;
    Alcotest.test_case "write csv" `Quick test_write_csv;
    Alcotest.test_case "write csv, missing parents" `Quick
      test_write_csv_nested;
    Alcotest.test_case "print table" `Quick test_print_table_no_exn;
    Alcotest.test_case "NE search crossing" `Quick
      test_observed_equilibria_finds_crossing;
    Alcotest.test_case "NE search all-bbr" `Quick
      test_observed_equilibria_all_bbr;
    Alcotest.test_case "NE search all-cubic" `Quick
      test_observed_equilibria_all_cubic;
    Alcotest.test_case "table1 driver" `Quick test_table1_driver;
    Alcotest.test_case "fig06 driver" `Quick test_fig06_driver;
    Alcotest.test_case "fig06 monotone" `Quick test_fig06_points_monotone;
    Alcotest.test_case "runs config" `Quick test_runs_config;
    Alcotest.test_case "fig09 helpers" `Quick test_fig09_helpers;
    Alcotest.test_case "fig10 threshold" `Quick test_fig10_threshold_profile;
    Alcotest.test_case "fig10 BR converges" `Quick
      test_fig10_br_converges_on_dominant;
    Alcotest.test_case "fig10 BR cycle detected" `Quick
      test_fig10_br_detects_cycle;
    Alcotest.test_case "run_specs one job per miss" `Quick
      test_run_specs_one_job_per_miss;
    Alcotest.test_case "run_specs invariant under jobs" `Quick
      test_run_specs_jobs_invariant;
    Alcotest.test_case "run_specs_memo dedupes" `Quick
      test_run_specs_memo_dedupes;
    Alcotest.test_case "evolve jobs-deterministic" `Quick
      test_adoption_jobs_deterministic;
    Alcotest.test_case "fig12 regimes" `Quick test_fig12_regimes;
  ]
