(* Command-line driver: regenerate any of the paper's tables/figures, and
   drive the correctness tooling.

   Usage:
     repro list
     repro run fig03 [--full] [--jobs 4] [--cache DIR] [--out results/]
                     [--trace DIR]
     repro all [--full] [--jobs 4] [--cache DIR] [--out results/]
     repro fuzz [--count 100] [--seed 1|from-commit] [--jobs 4]
                [--replay-out FILE] [--no-shrink] [--fault NAME]
                [--backend packet|fluid|ode]
     repro replay FILE [--fault NAME] [--backend packet|fluid|ode]
     repro compare [--backend packet --backend fluid ...] [--cca cubic ...]
                   [--mbps 100] [--rtt 40] [--buffer 10] [--duration 30]
     repro evolve [--dynamics replicator|best-response|logit[:TAU]]
                  [--backend fluid|ode|packet] [--seed 1] [--jobs 4]
                  [--generations N] [--spot-checks N] [--out results/]
*)

(* The ctx of a [run], [all] or [evolve] invocation. [--out] and [--trace]
   are created and the cache is opened before the first entry, so a path
   that names a regular file stops the invocation before anything is
   simulated. *)
let ctx_of ~full ~jobs ~out ~cache_dir ~trace_dir =
  match
    Option.iter Sim_engine.Exec.mkdir_p out;
    Option.iter Sim_engine.Exec.mkdir_p trace_dir;
    Experiments.Common.ctx ~jobs ?cache_dir ?trace_dir
      (if full then Experiments.Common.Full else Experiments.Common.Quick)
  with
  | ctx -> ctx
  | exception Sys_error msg ->
    Format.eprintf "repro: %s@." msg;
    exit 2

(* Aggregate the .metrics sidecars a traced entry produced into one
   summary line: sum the integer counters, recompute the rates from the
   sums, and average the queue-delay quantiles across configs. *)
let trace_summary ~dir new_metrics =
  let parse path =
    let ic = open_in (Filename.concat dir path) in
    let line = try input_line ic with End_of_file -> "" in
    close_in ic;
    List.filter_map
      (fun kv ->
        match String.index_opt kv '=' with
        | Some i ->
          Some
            ( String.sub kv 0 i,
              String.sub kv (i + 1) (String.length kv - i - 1) )
        | None -> None)
      (String.split_on_char ' ' line)
  in
  let parsed = List.map parse new_metrics in
  let sum key =
    List.fold_left
      (fun acc kvs ->
        match List.assoc_opt key kvs with
        | Some v -> acc + int_of_string v
        | None -> acc)
      0 parsed
  in
  let avg key =
    let vs =
      List.filter_map
        (fun kvs ->
          match List.assoc_opt key kvs with
          | Some v ->
            let f = float_of_string v in
            if Float.is_nan f then None else Some f
          | None -> None)
        parsed
    in
    Experiments.Common.mean vs
  in
  let sends = sum "sends" and retransmits = sum "retransmits" in
  let drops = sum "drops" in
  let rate n = if sends = 0 then nan else float_of_int n /. float_of_int sends in
  Printf.sprintf
    "traces=%d sends=%d retransmits=%d acks=%d seg_losts=%d drops=%d \
     rto_fires=%d recovery_entries=%d retransmit_rate=%.6f drop_rate=%.6f \
     p50_queue_delay=%.6f p90_queue_delay=%.6f p99_queue_delay=%.6f"
    (List.length parsed) sends retransmits (sum "acks") (sum "seg_losts")
    drops (sum "rto_fires") (sum "recovery_entries") (rate retransmits)
    (rate drops)
    (avg "p50_queue_delay")
    (avg "p90_queue_delay")
    (avg "p99_queue_delay")

(* Per-entry work accounting comes from the process-wide Exec counters:
   snapshot around the run and report the delta, so a cached re-run
   visibly says "0 simulated". *)
let run_entry ~out entry (ctx : Experiments.Common.ctx) =
  (* Wall-clock on purpose: reports how long the driver took, not model time. *)
  let t0 = Unix.gettimeofday () in (* simlint: allow R1 *)
  let metrics_before =
    match ctx.trace_dir with
    | Some dir when Sys.file_exists dir ->
      Array.to_list (Sys.readdir dir)
      |> List.filter (fun f -> Filename.check_suffix f ".metrics")
    | _ -> []
  in
  let before = Sim_engine.Exec.counters () in
  let table = entry.Experiments.Catalog.run ctx in
  let after = Sim_engine.Exec.counters () in
  Experiments.Common.print_table Format.std_formatter table;
  (match out with
  | Some dir ->
    let path = Experiments.Common.write_csv ~dir table in
    Format.printf "wrote %s@." path
  | None -> ());
  (match ctx.trace_dir with
  | Some dir when Sys.file_exists dir ->
    let new_metrics =
      Array.to_list (Sys.readdir dir)
      |> List.filter (fun f ->
             Filename.check_suffix f ".metrics"
             && not (List.mem f metrics_before))
      |> List.sort compare
    in
    if new_metrics <> [] then
      Format.printf "%s trace: %s@." entry.id (trace_summary ~dir new_metrics)
  | _ -> ());
  Format.printf "(%s took %.1f s; %d simulated, %d cache hits)@.@." entry.id
    (Unix.gettimeofday () -. t0 (* simlint: allow R1 *))
    (after.simulations - before.simulations)
    (after.cache_hits - before.cache_hits)

open Cmdliner

let full_arg =
  let doc = "Paper-scale grids and 2-minute runs (default: quick mode)." in
  Arg.(value & flag & info [ "full" ] ~doc)

let out_arg =
  let doc = "Also write each table as CSV into $(docv)." in
  Arg.(value & opt (some string) None & info [ "out"; "o" ] ~docv:"DIR" ~doc)

(* [conv] restricted to the values [ok] accepts: any other value is a
   usage error (exit 124) that says [msg], not an exception from deep in
   the run. *)
let checked conv ~ok ~msg =
  let parse s =
    match Arg.conv_parser conv s with
    | Ok x when ok x -> Ok x
    | Ok _ -> Error (`Msg msg)
    | Error _ as e -> e
  in
  Arg.conv (parse, Arg.conv_printer conv)

let positive_int = checked Arg.int ~ok:(fun n -> n >= 1) ~msg:"must be >= 1"
let non_negative_int = checked Arg.int ~ok:(fun n -> n >= 0) ~msg:"must be >= 0"

let positive_float =
  checked Arg.float
    ~ok:(fun x -> Float.is_finite x && x > 0.0)
    ~msg:"must be finite and > 0"

(* The network of [model] and [compare]. *)
let mbps_arg =
  Arg.(value & opt positive_float 100.0 & info [ "mbps" ] ~docv:"MBPS" ~doc:"Link capacity.")

let rtt_arg =
  Arg.(value & opt positive_float 40.0 & info [ "rtt" ] ~docv:"MS" ~doc:"Base RTT in ms.")

let buffer_arg =
  Arg.(value & opt positive_float 10.0 & info [ "buffer" ] ~docv:"BDP" ~doc:"Buffer in BDP.")

let jobs_arg =
  let doc =
    "Worker domains for simulation batches (default: the machine's \
     recommended domain count)."
  in
  Arg.(
    value
    & opt positive_int (Sim_engine.Exec.domain_count ())
    & info [ "jobs"; "j" ] ~docv:"N" ~doc)

let cache_arg =
  let doc =
    "Cache simulation results in $(docv) (content-addressed by config \
     digest); re-runs with unchanged parameters replay from disk. Without \
     it, results are kept in memory: one invocation still simulates each \
     distinct run once."
  in
  Arg.(value & opt (some string) None & info [ "cache" ] ~docv:"DIR" ~doc)

let trace_arg =
  let doc =
    "Write a structured event trace per simulated config into $(docv): \
     $(b,<digest>.jsonl) (the event stream) and $(b,<digest>.metrics) (a \
     one-line rollup). A traced invocation keeps its results in memory and \
     neither reads nor writes the $(b,--cache) directory, analytic runs \
     included: a cache hit would skip the simulation and leave no trace. \
     Each distinct config is still simulated and traced once."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"DIR" ~doc)

let list_cmd =
  let doc = "List the available experiments." in
  let run () =
    List.iter
      (fun e ->
        Format.printf "%-8s %s@." e.Experiments.Catalog.id e.summary)
      Experiments.Catalog.all
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

let run_cmd =
  let doc = "Run one experiment by id (see $(b,list))." in
  let id_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"ID")
  in
  let run id full out jobs cache_dir trace_dir =
    match Experiments.Catalog.find id with
    | None ->
      Format.eprintf "unknown experiment %S; try: %s@." id
        (String.concat ", " (Experiments.Catalog.ids ()));
      exit 1
    | Some entry ->
      run_entry ~out entry (ctx_of ~full ~jobs ~out ~cache_dir ~trace_dir)
  in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(
      const run $ id_arg $ full_arg $ out_arg $ jobs_arg $ cache_arg
      $ trace_arg)

let model_cmd =
  let doc =
    "Print the model's predictions (two-flow split, Ware baseline, Nash \
     region) for a given network."
  in
  let flows_arg =
    Arg.(value & opt positive_int 10 & info [ "flows" ] ~docv:"N" ~doc:"Total flows for the NE prediction.")
  in
  let run mbps rtt_ms buffer_bdp n =
    let params = Ccmodel.Params.of_paper_units ~mbps ~buffer_bdp ~rtt_ms in
    let s = Ccmodel.Two_flow.solve params in
    let to_mbps bps = Sim_engine.Units.bps_to_mbps (Sim_engine.Units.bps bps) in
    Format.printf "network: %a@." Ccmodel.Params.pp params;
    Format.printf "2-flow model: CUBIC %.2f Mbps, BBR %.2f Mbps (b_b = %.0f B, b_cmin = %.0f B)@."
      (to_mbps s.cubic_bandwidth_bps) (to_mbps s.bbr_bandwidth_bps)
      s.bbr_buffer_bytes s.cubic_min_buffer_bytes;
    Format.printf "predicted queuing delay: %.1f ms@."
      (1e3 *. Ccmodel.Two_flow.predicted_queuing_delay params);
    Format.printf "ware et al. baseline: BBR %.2f Mbps@."
      (to_mbps
         (Ccmodel.Ware.bbr_bandwidth_bps ~params ~n_bbr:1
            ~duration:(Sim_engine.Units.seconds 120.0)));
    let region = Ccmodel.Ne.nash_region params ~n in
    Format.printf
      "Nash region for %d flows: %.1f (synch) to %.1f (desynch) CUBIC flows@."
      n region.cubic_at_ne_sync region.cubic_at_ne_desync
  in
  Cmd.v (Cmd.info "model" ~doc)
    Term.(const run $ mbps_arg $ rtt_arg $ buffer_arg $ flows_arg)

let all_cmd =
  let doc = "Run every experiment in paper order." in
  let run full out jobs cache_dir trace_dir =
    let ctx = ctx_of ~full ~jobs ~out ~cache_dir ~trace_dir in
    List.iter (fun entry -> run_entry ~out entry ctx) Experiments.Catalog.all
  in
  Cmd.v (Cmd.info "all" ~doc)
    Term.(const run $ full_arg $ out_arg $ jobs_arg $ cache_arg $ trace_arg)

(* --- correctness tooling: fuzz + replay ------------------------------- *)

let fault_arg =
  let doc =
    "Interpose a named event-stream corruption between the hub and the \
     auditor (see Sim_check.Fuzz.faults). Used to exercise the \
     fuzz/shrink/replay pipeline against a known-bad stream."
  in
  let fault_conv =
    let parse s =
      match Sim_check.Fuzz.fault_named s with
      | Some f -> Ok f
      | None ->
        Error
          (`Msg
             (Printf.sprintf "unknown fault %S; known: %s" s
                (String.concat ", "
                   (List.map
                      (fun f -> f.Sim_check.Fuzz.fault_name)
                      Sim_check.Fuzz.faults))))
    in
    Arg.conv (parse, fun ppf f -> Fmt.string ppf f.Sim_check.Fuzz.fault_name)
  in
  Arg.(value & opt (some fault_conv) None & info [ "fault" ] ~docv:"NAME" ~doc)

let backend_conv =
  let parse s =
    match Sim_backend.find s with
    | Ok b -> Ok b
    | Error _ ->
      Error
        (`Msg
           (Printf.sprintf "unknown backend %S; known: %s" s
              (String.concat ", " (Sim_backend.names ()))))
  in
  Arg.conv (parse, fun ppf b -> Fmt.string ppf (Sim_backend.name b))

let backend_arg =
  let doc =
    "Simulation backend to fuzz: $(b,packet) (default; full event-stream \
     audit) or an analytic backend ($(b,fluid), $(b,ode)) checked against \
     outcome-level invariants and cross-backend parity."
  in
  Arg.(
    value
    & opt backend_conv Sim_backend.packet
    & info [ "backend" ] ~docv:"NAME" ~doc)

(* The suffix naming an analytic backend in fuzz output; the packet
   backend is the default and goes unnamed. *)
let analytic_suffix ~fmt backend =
  if Sim_check.Fuzz.audited backend then ""
  else Printf.sprintf fmt (Sim_backend.name backend)

let fuzz_cmd =
  let doc =
    "Fuzz random scenarios under the runtime invariant auditor; on failure, \
     shrink to a minimal scenario and save a deterministic replay file."
  in
  let count_arg =
    Arg.(
      value & opt positive_int 100
      & info [ "count"; "n" ] ~docv:"N" ~doc:"Number of scenarios to run.")
  in
  let seed_arg =
    let doc =
      "Campaign seed: an integer, or $(b,from-commit) to derive one from the \
       current git HEAD (stable per commit, different across commits)."
    in
    let seed_conv =
      let parse s =
        if s = "from-commit" then begin
          let ic = Unix.open_process_in "git rev-parse HEAD 2>/dev/null" in
          let line = try input_line ic with End_of_file -> "" in
          ignore (Unix.close_process_in ic);
          if line = "" then Ok 1
          else begin
            (* Fold the hash digest into a positive int seed. *)
            let d = Digest.string line in
            let n = ref 0 in
            String.iter (fun c -> n := ((!n * 31) + Char.code c) land 0x3FFFFFFF) d;
            Ok (max 1 !n)
          end
        end
        else
          match int_of_string_opt s with
          | Some n -> Ok n
          | None -> Error (`Msg "expected an integer or 'from-commit'")
      in
      Arg.conv (parse, Fmt.int)
    in
    Arg.(value & opt seed_conv 1 & info [ "seed" ] ~docv:"SEED" ~doc)
  in
  let shrink_arg =
    let on =
      Arg.info [ "shrink" ]
        ~doc:"Shrink the first failure to a minimal scenario (default)."
    in
    let off = Arg.info [ "no-shrink" ] ~doc:"Report the failure as generated." in
    Arg.(value & vflag true [ (true, on); (false, off) ])
  in
  let replay_out_arg =
    Arg.(
      value
      & opt string "fuzz-failure.scenario"
      & info [ "replay-out" ] ~docv:"FILE"
          ~doc:"Where to save the (shrunk) failing scenario.")
  in
  let run count seed jobs shrink replay_out fault backend =
    if Option.is_some fault && not (Sim_check.Fuzz.audited backend) then begin
      Format.eprintf
        "fuzz: --fault applies to the packet event stream; backend %s has \
         none@."
        (Sim_backend.name backend);
      exit 2
    end;
    Format.printf "fuzz: %d scenarios, seed %d, %d jobs%s%s@." count seed jobs
      (match fault with
      | Some f -> Printf.sprintf ", fault=%s" f.Sim_check.Fuzz.fault_name
      | None -> "")
      (analytic_suffix ~fmt:", backend=%s" backend);
    let c = Sim_check.Fuzz.campaign ?fault ~backend ~jobs ~count ~seed () in
    Format.printf "fuzz: %d/%d passed@." c.passed c.total;
    match c.failures with
    | [] -> ()
    | first :: _ ->
      List.iter
        (fun (f : Sim_check.Fuzz.case) ->
          Format.printf "  case %d FAILED: %s@.    %s@." f.case_index
            (Sim_check.Scenario.describe f.case_scenario)
            (Sim_check.Fuzz.outcome_to_string f.case_outcome))
        c.failures;
      let scenario =
        if shrink then begin
          Format.printf "shrinking case %d...@." first.case_index;
          let s =
            Sim_check.Fuzz.shrink ?fault ~backend first.case_scenario
          in
          Format.printf "shrunk to: %s@." (Sim_check.Scenario.describe s);
          s
        end
        else first.case_scenario
      in
      Sim_check.Scenario.save ~path:replay_out scenario;
      (match Sim_check.Fuzz.run_scenario ?fault ~backend scenario with
      | Pass -> () (* can't happen: shrink preserves failure *)
      | outcome ->
        Format.printf "%s@." (Sim_check.Fuzz.outcome_to_string outcome));
      Format.printf "replay saved to %s (repro replay %s%s%s)@." replay_out
        replay_out
        (match fault with
        | Some f -> Printf.sprintf " --fault %s" f.Sim_check.Fuzz.fault_name
        | None -> "")
        (analytic_suffix ~fmt:" --backend %s" backend);
      exit 1
  in
  Cmd.v (Cmd.info "fuzz" ~doc)
    Term.(
      const run $ count_arg $ seed_arg $ jobs_arg $ shrink_arg
      $ replay_out_arg $ fault_arg $ backend_arg)

let replay_cmd =
  let doc =
    "Re-run a saved fuzz scenario deterministically and report its verdict."
  in
  let file_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE")
  in
  let run path fault backend =
    if Option.is_some fault && not (Sim_check.Fuzz.audited backend) then begin
      Format.eprintf "replay: --fault needs the packet backend@.";
      exit 2
    end;
    match Sim_check.Fuzz.replay ?fault ~backend path with
    | Error msg ->
      Format.eprintf "replay: %s@." msg;
      exit 2
    | Ok (scenario, outcome) ->
      Format.printf "scenario: %s@." (Sim_check.Scenario.describe scenario);
      Format.printf "outcome: %s@." (Sim_check.Fuzz.outcome_to_string outcome);
      (match outcome with Pass -> () | _ -> exit 1)
  in
  Cmd.v (Cmd.info "replay" ~doc)
    Term.(const run $ file_arg $ fault_arg $ backend_arg)

let compare_cmd =
  let doc =
    "Run one shared-bottleneck spec on several backends and print each \
     backend's per-flow goodput side by side (the one-off version of the \
     $(b,fluidgrid) experiment)."
  in
  let backends_arg =
    let doc =
      "Backend to include (repeatable; default: every backend that \
       supports all requested CCAs)."
    in
    Arg.(value & opt_all backend_conv [] & info [ "backend" ] ~docv:"NAME" ~doc)
  in
  let ccas_arg =
    let doc = "A flow's CCA, by registry name (repeatable)." in
    Arg.(value & opt_all string [ "cubic"; "bbr" ] & info [ "cca" ] ~docv:"CCA" ~doc)
  in
  let duration_arg =
    Arg.(value & opt positive_float 30.0 & info [ "duration" ] ~docv:"S" ~doc:"Horizon in seconds.")
  in
  let seed_arg =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Simulation seed (stochastic backends).")
  in
  let run backends ccas mbps rtt_ms buffer_bdp duration_s seed =
    let module U = Sim_engine.Units in
    let rate_bps = U.mbps mbps in
    let rtt = U.ms rtt_ms in
    let spec =
      Sim_backend.spec ~seed ~rate_bps
        ~buffer_bytes:(U.scale buffer_bdp (U.bdp_bytes ~rate_bps ~rtt))
        ~duration:(U.seconds duration_s)
        ~warmup:(U.seconds (duration_s /. 3.0))
        (List.map (fun cca -> { Sim_backend.cca; rtt }) ccas)
    in
    let backends =
      match backends with
      | [] ->
        List.filter
          (fun b -> List.for_all (Sim_backend.supports b) ccas)
          Sim_backend.all
      | bs -> bs
    in
    if backends = [] then begin
      Format.eprintf "compare: no backend supports all of: %s@."
        (String.concat ", " ccas);
      exit 2
    end;
    Format.printf "spec: %.1f Mbps, %.1f ms, %.1f BDP buffer, %.1f s, flows=%s@."
      mbps rtt_ms buffer_bdp duration_s (String.concat "," ccas);
    let failed = ref false in
    List.iter
      (fun b ->
        match Sim_backend.run b spec with
        | Error e ->
          failed := true;
          Format.printf "%-8s %a@." (Sim_backend.name b) Sim_backend.pp_error e
        | Ok o ->
          let shares =
            Array.to_list
              (Array.map2
                 (fun cca bps ->
                   Printf.sprintf "%s=%.2f" cca (U.bps_to_mbps (U.bps bps)))
                 o.Sim_backend.per_flow_cca o.Sim_backend.per_flow_bps)
          in
          Format.printf
            "%-8s %s Mbps  util=%.3f queue=%.0fB qdelay=%.1fms losses=%d@."
            (Sim_backend.name b)
            (String.concat " " shares)
            o.Sim_backend.utilization o.Sim_backend.mean_queue_bytes
            (1e3 *. o.Sim_backend.mean_queuing_delay)
            o.Sim_backend.loss_events)
      backends;
    if !failed then exit 1
  in
  Cmd.v (Cmd.info "compare" ~doc)
    Term.(
      const run $ backends_arg $ ccas_arg $ mbps_arg $ rtt_arg $ buffer_arg
      $ duration_arg $ seed_arg)

let evolve_cmd =
  let doc =
    "Evolve population-scale CCA adoption (replicator / best-response / \
     logit dynamics over RTT classes, simulator-measured payoffs) and \
     print the adoption-trajectory table."
  in
  let dynamics_conv =
    let parse s =
      match Ccgame.Evolve.dynamics_of_string s with
      | Ok d -> Ok d
      | Error msg -> Error (`Msg msg)
    in
    Arg.conv
      (parse, fun ppf d -> Fmt.string ppf (Ccgame.Evolve.dynamics_name d))
  in
  let dynamics_arg =
    let doc =
      "Dynamics to evolve (repeatable): $(b,replicator), \
       $(b,best-response), $(b,logit) or $(b,logit:TAU). Default: all \
       three."
    in
    Arg.(value & opt_all dynamics_conv [] & info [ "dynamics" ] ~docv:"DYN" ~doc)
  in
  let evolve_backend_arg =
    let doc =
      "Payoff backend: $(b,fluid) (default), $(b,ode) or $(b,packet) \
       (packet disables the spot checks — it is what they check against)."
    in
    Arg.(
      value
      & opt backend_conv Sim_backend.fluid
      & info [ "backend" ] ~docv:"NAME" ~doc)
  in
  let seed_arg =
    Arg.(
      value & opt int 1
      & info [ "seed" ] ~docv:"SEED"
          ~doc:"Seed for initial shares and simulations.")
  in
  let generations_arg =
    Arg.(
      value
      & opt (some non_negative_int) None
      & info [ "generations" ] ~docv:"N"
          ~doc:"Generation cap (default: 60 quick / 150 full).")
  in
  let spot_arg =
    Arg.(
      value
      & opt (some non_negative_int) None
      & info [ "spot-checks" ] ~docv:"N"
          ~doc:
            "Packet-level sign checks per trajectory; 0 disables (default: \
             1 quick / 2 full).")
  in
  let run full out jobs cache_dir dynamics backend seed max_generations
      spot_checks =
    let ctx = ctx_of ~full ~jobs ~out ~cache_dir ~trace_dir:None in
    let dynamics = if dynamics = [] then None else Some dynamics in
    let entry =
      {
        Experiments.Catalog.id = "evolve";
        summary = "Population-scale CCA adoption dynamics";
        run =
          Experiments.Adoption.run_with ?dynamics ~backend ~seed
            ?max_generations ?spot_checks;
      }
    in
    run_entry ~out entry ctx
  in
  Cmd.v (Cmd.info "evolve" ~doc)
    Term.(
      const run $ full_arg $ out_arg $ jobs_arg $ cache_arg $ dynamics_arg
      $ evolve_backend_arg $ seed_arg $ generations_arg $ spot_arg)

let main_cmd =
  let doc =
    "Reproduce the experiments of 'Are we heading towards a BBR-dominant \
     Internet?' (IMC 2022)"
  in
  Cmd.group (Cmd.info "repro" ~version:"1.0.0" ~doc)
    [
      list_cmd; run_cmd; all_cmd; model_cmd; compare_cmd; evolve_cmd;
      fuzz_cmd; replay_cmd;
    ]

let () = exit (Cmd.eval main_cmd)
