(* The scenario fuzzer end to end: generator determinism, replay-file
   round-trips, shrinking, and the acceptance property — an intentionally
   broken inflight accounting (injected as a stream fault) is caught by the
   auditor, shrinks to a tiny scenario, and replays deterministically. *)

module Scenario = Sim_check.Scenario
module Fuzz = Sim_check.Fuzz

let packet = Sim_backend.packet

let scenario_eq = Alcotest.testable (Fmt.of_to_string Scenario.to_string) ( = )

let small_scenario =
  {
    Scenario.seed = 11;
    mbps = 10.0;
    buffer_bdp = 1.0;
    base_rtt_ms = 20.0;
    duration_s = 1.0;
    aqm = Scenario.Tail;
    flows =
      [ { Scenario.f_cca = "reno"; f_rtt_ms = 20.0; f_start_s = 0.0 } ];
    workload = None;
  }

let churn_scenario =
  {
    small_scenario with
    Scenario.duration_s = 2.0;
    workload =
      Some
        {
          Scenario.w_kind = Scenario.Poisson_arrivals;
          w_load = 0.2;
          w_mean_kb = 50.0;
        };
  }

let test_generator_deterministic () =
  let a = Scenario.generate_batch ~seed:42 ~count:8 () in
  let b = Scenario.generate_batch ~seed:42 ~count:8 () in
  Alcotest.(check (list scenario_eq)) "same seed, same batch" a b;
  let c = Scenario.generate_batch ~seed:43 ~count:8 () in
  Alcotest.(check bool) "different seed, different batch" false (a = c)

let test_generator_bounds () =
  List.iter
    (fun (s : Scenario.t) ->
      Alcotest.(check bool) "flows" true
        (List.length s.flows >= 1 && List.length s.flows <= 5);
      Alcotest.(check bool) "duration" true
        (s.duration_s >= 3.0 && s.duration_s <= 8.0);
      Alcotest.(check bool) "bandwidth" true (s.mbps >= 5.0 && s.mbps <= 50.0);
      List.iter
        (fun (f : Scenario.flow) ->
          Alcotest.(check bool) (f.f_cca ^ " registered") true
            (List.mem f.f_cca (Cca.Registry.names ())))
        s.flows)
    (Scenario.generate_batch ~seed:7 ~count:32 ())

let test_roundtrip () =
  List.iter
    (fun s ->
      match Scenario.of_string (Scenario.to_string s) with
      | Ok s' -> Alcotest.(check scenario_eq) "round-trips" s s'
      | Error e -> Alcotest.failf "parse failed: %s" e)
    (small_scenario :: Scenario.generate_batch ~seed:5 ~count:16 ())

let test_of_string_rejects () =
  List.iter
    (fun (name, text) ->
      match Scenario.of_string text with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%s: expected a parse error" name)
    [
      ("empty", "");
      ("bad header", "not a scenario\nseed 1\n");
      ("no flows", "sim_check scenario v1\nseed 1\nmbps 10.0000\n");
      ( "bad cca",
        Scenario.to_string
          {
            small_scenario with
            Scenario.flows =
              [ { Scenario.f_cca = "nope"; f_rtt_ms = 20.0; f_start_s = 0.0 } ];
          } );
    ]

let test_shrink_candidates_simpler () =
  let s = List.hd (Scenario.generate_batch ~seed:9 ~count:1 ()) in
  let candidates = Scenario.shrink_candidates s in
  Alcotest.(check bool) "has candidates" true (List.length candidates > 0);
  List.iter
    (fun (c : Scenario.t) ->
      Alcotest.(check bool) "differs from parent" false (c = s);
      Alcotest.(check bool) "never grows flows" true
        (List.length c.flows <= List.length s.flows))
    candidates

let test_clean_run_passes () =
  match Fuzz.run_scenario ~backend:packet small_scenario with
  | Fuzz.Pass -> ()
  | o -> Alcotest.failf "clean scenario failed: %s" (Fuzz.outcome_to_string o)

(* A churn scenario runs the whole lifecycle machinery (slot reuse, mid-sim
   attach/detach, completion events) under the auditor's lifecycle checks —
   a clean pass means every invariant held on a real open-loop stream. *)
let test_clean_churn_run_passes () =
  match Fuzz.run_scenario ~backend:packet churn_scenario with
  | Fuzz.Pass -> ()
  | o -> Alcotest.failf "churn scenario failed: %s" (Fuzz.outcome_to_string o)

let test_workload_roundtrip_and_shrink () =
  (match Scenario.of_string (Scenario.to_string churn_scenario) with
  | Ok s' -> Alcotest.(check scenario_eq) "round-trips" churn_scenario s'
  | Error e -> Alcotest.failf "parse failed: %s" e);
  let candidates = Scenario.shrink_candidates churn_scenario in
  Alcotest.(check bool) "leads with dropping the workload" true
    (match candidates with
    | first :: _ -> Option.is_none first.Scenario.workload
    | [] -> false);
  Alcotest.(check bool) "offers a halved load" true
    (List.exists
       (fun (c : Scenario.t) ->
         match c.Scenario.workload with
         | Some w -> w.Scenario.w_load < 0.2
         | None -> false)
       candidates)

let test_run_deterministic () =
  let fault = Option.get (Fuzz.fault_named "inflight") in
  let a = Fuzz.run_scenario ~fault ~backend:packet small_scenario in
  let b = Fuzz.run_scenario ~fault ~backend:packet small_scenario in
  Alcotest.(check string) "same verdict" (Fuzz.outcome_to_string a)
    (Fuzz.outcome_to_string b)

(* The acceptance property: broken inflight accounting is caught, shrinks
   to a <= 2-flow scenario, and the saved replay reproduces the identical
   violation. *)
let test_fault_caught_shrunk_replayed () =
  let fault = Option.get (Fuzz.fault_named "inflight") in
  let c = Fuzz.campaign ~fault ~backend:packet ~count:3 ~seed:7 () in
  Alcotest.(check int) "every case caught" 3 (List.length c.Fuzz.failures);
  let first = List.hd c.Fuzz.failures in
  (match first.Fuzz.case_outcome with
  | Fuzz.Violation v ->
    Alcotest.(check string) "the right invariant" "inflight-mismatch"
      v.Sim_check.Audit.invariant
  | o -> Alcotest.failf "expected a violation, got %s" (Fuzz.outcome_to_string o));
  let shrunk = Fuzz.shrink ~fault ~backend:packet first.Fuzz.case_scenario in
  Alcotest.(check bool) "shrinks to <= 2 flows" true
    (List.length shrunk.Scenario.flows <= 2);
  let path = Filename.temp_file "fuzz_replay" ".scenario" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Scenario.save ~path shrunk;
      match
        ( Fuzz.replay ~fault ~backend:packet path,
          Fuzz.run_scenario ~fault ~backend:packet shrunk )
      with
      | Ok (loaded, replayed), direct ->
        Alcotest.(check scenario_eq) "file preserves scenario" shrunk loaded;
        Alcotest.(check string) "replay = direct run"
          (Fuzz.outcome_to_string direct)
          (Fuzz.outcome_to_string replayed);
        (match replayed with
        | Fuzz.Violation _ -> ()
        | o ->
          Alcotest.failf "replay no longer fails: %s" (Fuzz.outcome_to_string o))
      | Error e, _ -> Alcotest.failf "replay failed to load: %s" e)

let test_clean_campaign () =
  let c = Fuzz.campaign ~backend:packet ~count:4 ~seed:3 () in
  Alcotest.(check int) "total" 4 c.Fuzz.total;
  Alcotest.(check int) "all passed" 4 c.Fuzz.passed;
  Alcotest.(check (list Alcotest.reject)) "no failures" [] c.Fuzz.failures

let test_campaign_jobs_invariant () =
  let fault = Option.get (Fuzz.fault_named "delivered-rewind") in
  let seq = Fuzz.campaign ~fault ~backend:packet ~count:4 ~seed:13 () in
  let par =
    Fuzz.campaign ~fault ~backend:packet ~jobs:4 ~count:4 ~seed:13 ()
  in
  Alcotest.(check int) "same verdicts" seq.Fuzz.passed par.Fuzz.passed;
  Alcotest.(check (list int)) "same failing cases"
    (List.map (fun f -> f.Fuzz.case_index) seq.Fuzz.failures)
    (List.map (fun f -> f.Fuzz.case_index) par.Fuzz.failures)

(* --- analytic-backend fuzzing ---------------------------------------- *)

let test_generator_cca_filter () =
  let ccas = [ "cubic"; "bbr" ] in
  List.iter
    (fun (s : Scenario.t) ->
      List.iter
        (fun (f : Scenario.flow) ->
          Alcotest.(check bool) (f.Scenario.f_cca ^ " allowed") true
            (List.mem f.Scenario.f_cca ccas))
        s.Scenario.flows)
    (Scenario.generate_batch ~ccas ~seed:21 ~count:24 ())

let test_backend_clean_campaign () =
  List.iter
    (fun backend ->
      let c =
        Fuzz.campaign ~backend ~jobs:2 ~count:6 ~seed:3 ()
      in
      Alcotest.(check int) (Sim_backend.name backend ^ " total") 6 c.Fuzz.total;
      List.iter
        (fun f ->
          Alcotest.failf "%s case %d: %s" (Sim_backend.name backend)
            f.Fuzz.case_index
            (Fuzz.outcome_to_string f.Fuzz.case_outcome))
        c.Fuzz.failures)
    [ Sim_backend.fluid; Sim_backend.ode ]

let test_backend_run_deterministic () =
  let s =
    List.hd
      (Scenario.generate_batch ~ccas:[ "cubic"; "bbr"; "bbr2" ] ~seed:5
         ~count:1 ())
  in
  let a = Fuzz.run_scenario ~backend:Sim_backend.ode s in
  let b = Fuzz.run_scenario ~backend:Sim_backend.ode s in
  Alcotest.(check string) "same verdict" (Fuzz.outcome_to_string a)
    (Fuzz.outcome_to_string b)

let test_backend_unsupported_cca_is_crash () =
  (* [small_scenario] runs reno, which the analytic backends reject. *)
  match Fuzz.run_scenario ~backend:Sim_backend.fluid small_scenario with
  | Fuzz.Crash _ -> ()
  | o ->
    Alcotest.failf "expected a crash on reno, got %s"
      (Fuzz.outcome_to_string o)

let test_backend_shrink_keeps_passing_scenario () =
  let s =
    List.hd
      (Scenario.generate_batch ~ccas:[ "cubic"; "bbr"; "bbr2" ] ~seed:17
         ~count:1 ())
  in
  Alcotest.(check scenario_eq) "no shrink on a passing scenario" s
    (Fuzz.shrink ~backend:Sim_backend.fluid s)

let tests =
  [
    Alcotest.test_case "generator deterministic" `Quick
      test_generator_deterministic;
    Alcotest.test_case "generator bounds" `Quick test_generator_bounds;
    Alcotest.test_case "replay file round-trip" `Quick test_roundtrip;
    Alcotest.test_case "of_string rejects junk" `Quick test_of_string_rejects;
    Alcotest.test_case "shrink candidates simpler" `Quick
      test_shrink_candidates_simpler;
    Alcotest.test_case "clean run passes" `Quick test_clean_run_passes;
    Alcotest.test_case "clean churn run passes" `Quick
      test_clean_churn_run_passes;
    Alcotest.test_case "workload round-trip and shrink" `Quick
      test_workload_roundtrip_and_shrink;
    Alcotest.test_case "run deterministic" `Quick test_run_deterministic;
    Alcotest.test_case "fault caught, shrunk, replayed" `Slow
      test_fault_caught_shrunk_replayed;
    Alcotest.test_case "clean campaign" `Slow test_clean_campaign;
    Alcotest.test_case "campaign jobs-invariant" `Slow
      test_campaign_jobs_invariant;
    Alcotest.test_case "generator CCA filter" `Quick test_generator_cca_filter;
    Alcotest.test_case "backend campaigns clean" `Slow
      test_backend_clean_campaign;
    Alcotest.test_case "backend run deterministic" `Quick
      test_backend_run_deterministic;
    Alcotest.test_case "backend rejects unsupported CCA as crash" `Quick
      test_backend_unsupported_cca_is_crash;
    Alcotest.test_case "backend shrink keeps passing scenario" `Quick
      test_backend_shrink_keeps_passing_scenario;
  ]
