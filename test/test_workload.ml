(* The workload generators: analytic means vs sampled means, tail behavior,
   inter-arrival distribution shape, schedule determinism, and the seed-split
   independence that keeps arrivals decoupled from sender randomness. *)

module Rng = Sim_engine.Rng
module Dist = Workload.Dist
module Arrival = Workload.Arrival
module Schedule = Workload.Schedule

let sample_mean dist ~seed ~n =
  let rng = Rng.create seed in
  let acc = ref 0.0 in
  for _ = 1 to n do
    acc := !acc +. float_of_int (Dist.sample dist rng)
  done;
  !acc /. float_of_int n

(* --- size distributions --- *)

let test_dist_means () =
  List.iter
    (fun (name, dist, tol) ->
      let mean = Dist.mean_bytes dist in
      let got = sample_mean dist ~seed:42 ~n:20_000 in
      let rel = Float.abs (got -. mean) /. mean in
      if rel > tol then
        Alcotest.failf "%s: sample mean %.0f vs analytic %.0f (rel %.3f > %.3f)"
          name got mean rel tol)
    [
      ("fixed", Dist.Fixed 30_000, 1e-9);
      ("uniform", Dist.Uniform { lo_bytes = 100_000; hi_bytes = 500_000 }, 0.01);
      ("lognormal", Dist.Lognormal { mu = log 30_000.0; sigma = 1.0 }, 0.05);
      (* Pareto alpha 1.3: infinite variance, the sample mean converges
         slowly — a loose tolerance is the honest one. *)
      ("pareto", Dist.Pareto { xm_bytes = 300_000.0; alpha = 1.3 }, 0.35);
      ("web", Dist.web_objects, 0.25);
    ]

let test_dist_bounds () =
  let rng = Rng.create 7 in
  let dist = Dist.Uniform { lo_bytes = 100; hi_bytes = 200 } in
  for _ = 1 to 1000 do
    let s = Dist.sample dist rng in
    if s < 100 || s >= 200 then Alcotest.failf "uniform sample %d out of range" s
  done;
  let pareto = Dist.Pareto { xm_bytes = 5_000.0; alpha = 2.0 } in
  for _ = 1 to 1000 do
    let s = Dist.sample pareto rng in
    if s < 5_000 then Alcotest.failf "pareto sample %d below scale" s
  done

let test_dist_tail_heavier_than_body () =
  (* The web mixture must actually produce its heavy tail: with 5% Pareto
     weight above 300 kB, 20k samples see hundreds of tail draws. *)
  let rng = Rng.create 3 in
  let n = 20_000 in
  let tail = ref 0 in
  for _ = 1 to n do
    if Dist.sample Dist.web_objects rng >= 300_000 then incr tail
  done;
  let frac = float_of_int !tail /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "tail fraction %.3f in [0.03, 0.12]" frac)
    true
    (frac >= 0.03 && frac <= 0.12)

let test_dist_validate_rejects () =
  List.iter
    (fun (name, dist) ->
      match Dist.validate dist with
      | exception Invalid_argument _ -> ()
      | () -> Alcotest.failf "%s: expected Invalid_argument" name)
    [
      ("fixed zero", Dist.Fixed 0);
      ("uniform inverted", Dist.Uniform { lo_bytes = 10; hi_bytes = 10 });
      ("pareto alpha", Dist.Pareto { xm_bytes = 100.0; alpha = 1.0 });
      ("lognormal sigma", Dist.Lognormal { mu = 1.0; sigma = -1.0 });
    ]

(* --- arrival processes --- *)

(* A KS-style check on Poisson inter-arrival gaps: the empirical CDF of
   exponential gaps must stay within a generous band of the analytic CDF.
   With n = 10_000 the 1% KS critical value is ~0.0163; 0.03 leaves slack
   while still failing for any wrong distribution shape. *)
let test_poisson_gaps_exponential () =
  let rate = 50.0 in
  let arrival = Arrival.Poisson { rate_per_s = rate } in
  let rng = Rng.create 11 in
  let n = 10_000 in
  let gaps = Array.init n (fun _ -> Arrival.next_gap arrival rng) in
  Array.sort compare gaps;
  let worst = ref 0.0 in
  Array.iteri
    (fun i g ->
      let empirical = float_of_int (i + 1) /. float_of_int n in
      let analytic = 1.0 -. exp (-.rate *. g) in
      let d = Float.abs (empirical -. analytic) in
      if d > !worst then worst := d)
    gaps;
  Alcotest.(check bool)
    (Printf.sprintf "KS distance %.4f < 0.03" !worst)
    true (!worst < 0.03)

let test_arrival_means () =
  List.iter
    (fun (name, arrival, tol) ->
      let mean = Arrival.mean_gap_s arrival in
      let rng = Rng.create 19 in
      let n = 20_000 in
      let acc = ref 0.0 in
      for _ = 1 to n do
        acc := !acc +. Arrival.next_gap arrival rng
      done;
      let got = !acc /. float_of_int n in
      let rel = Float.abs (got -. mean) /. mean in
      if rel > tol then
        Alcotest.failf "%s: sample mean gap %.5f vs %.5f (rel %.3f)" name got
          mean rel)
    [
      ("poisson", Arrival.Poisson { rate_per_s = 20.0 }, 0.02);
      ("pareto gaps", Arrival.Pareto_gaps { mean_gap_s = 0.05; alpha = 1.5 }, 0.35);
    ]

let test_poisson_of_load () =
  let a =
    Arrival.poisson_of_load ~load:0.5 ~rate_bps:100e6 ~mean_size_bytes:125_000.0
  in
  (* 0.5 * 100e6 bits/s / (8 * 125_000 bits per flow) = 50 flows/s *)
  match a with
  | Arrival.Poisson { rate_per_s } ->
    Alcotest.(check (float 1e-9)) "rate" 50.0 rate_per_s
  | _ -> Alcotest.fail "expected Poisson"

(* --- schedules --- *)

let web_schedule ~seed =
  Schedule.generate_seeded
    ~arrival:(Arrival.Poisson { rate_per_s = 40.0 })
    ~sizes:Dist.web_objects ~horizon_s:10.0 ~seed ()

let test_schedule_deterministic () =
  let a = web_schedule ~seed:5 and b = web_schedule ~seed:5 in
  Alcotest.(check string) "byte-identical for one seed" (Schedule.to_string a)
    (Schedule.to_string b);
  let c = web_schedule ~seed:6 in
  Alcotest.(check bool) "different seed, different schedule" false
    (String.equal (Schedule.to_string a) (Schedule.to_string c))

let test_schedule_sorted_within_horizon () =
  let s = web_schedule ~seed:5 in
  Alcotest.(check bool) "non-empty" true (Schedule.count s > 0);
  Array.iteri
    (fun i it ->
      if it.Schedule.arrival_s < 0.0 || it.Schedule.arrival_s >= 10.0 then
        Alcotest.failf "arrival %f outside horizon" it.Schedule.arrival_s;
      if it.Schedule.size_bytes <= 0 then
        Alcotest.failf "non-positive size %d" it.Schedule.size_bytes;
      if i > 0 && s.(i - 1).Schedule.arrival_s > it.Schedule.arrival_s then
        Alcotest.fail "arrivals not sorted")
    s

(* Seed-split independence: the arrival instants of a schedule must not
   depend on the size distribution (and vice versa), because [generate]
   splits one sub-stream per axis. *)
let test_schedule_axes_independent () =
  let gen sizes =
    Schedule.generate
      ~arrival:(Arrival.Poisson { rate_per_s = 40.0 })
      ~sizes ~horizon_s:10.0 ~rng:(Rng.create 5) ()
  in
  let a = gen (Dist.Fixed 10_000) in
  let b = gen Dist.web_objects in
  Alcotest.(check int) "same arrival count" (Schedule.count a)
    (Schedule.count b);
  Array.iteri
    (fun i it ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "arrival %d unchanged" i)
        it.Schedule.arrival_s
        b.(i).Schedule.arrival_s)
    a

let test_offered_load () =
  let s = web_schedule ~seed:5 in
  let rate_bps = 50e6 in
  let load = Schedule.offered_load s ~rate_bps ~horizon_s:10.0 in
  let expect =
    8.0 *. float_of_int (Schedule.total_bytes s) /. 10.0 /. rate_bps
  in
  Alcotest.(check (float 1e-9)) "load is scheduled bits over capacity" expect
    load

(* --- QCheck properties --- *)

let prop_schedule_deterministic =
  QCheck.Test.make ~name:"schedule byte-identical for a fixed seed" ~count:30
    QCheck.(pair (int_bound 1000) (int_range 1 50))
    (fun (seed, rate) ->
      let gen () =
        Schedule.generate_seeded
          ~arrival:(Arrival.Poisson { rate_per_s = float_of_int rate })
          ~sizes:Dist.web_objects ~horizon_s:5.0 ~seed ()
      in
      String.equal (Schedule.to_string (gen ())) (Schedule.to_string (gen ())))

let prop_mean_size_tolerance =
  QCheck.Test.make ~name:"lognormal sample mean tracks analytic mean" ~count:20
    QCheck.(pair (int_bound 1000) (int_range 10 200))
    (fun (seed, mean_kb) ->
      let mu = log (float_of_int mean_kb *. 1000.0) -. 0.5 in
      let dist = Dist.Lognormal { mu; sigma = 1.0 } in
      let mean = Dist.mean_bytes dist in
      let got = sample_mean dist ~seed ~n:4_000 in
      Float.abs (got -. mean) /. mean < 0.2)

let tests =
  [
    Alcotest.test_case "size dist means" `Quick test_dist_means;
    Alcotest.test_case "size dist bounds" `Quick test_dist_bounds;
    Alcotest.test_case "web mixture tail" `Quick test_dist_tail_heavier_than_body;
    Alcotest.test_case "dist validate rejects" `Quick test_dist_validate_rejects;
    Alcotest.test_case "poisson gaps exponential (KS)" `Quick
      test_poisson_gaps_exponential;
    Alcotest.test_case "arrival mean gaps" `Quick test_arrival_means;
    Alcotest.test_case "poisson_of_load" `Quick test_poisson_of_load;
    Alcotest.test_case "schedule deterministic" `Quick test_schedule_deterministic;
    Alcotest.test_case "schedule sorted, within horizon" `Quick
      test_schedule_sorted_within_horizon;
    Alcotest.test_case "arrival/size axes independent" `Quick
      test_schedule_axes_independent;
    Alcotest.test_case "offered load" `Quick test_offered_load;
    QCheck_alcotest.to_alcotest prop_schedule_deterministic;
    QCheck_alcotest.to_alcotest prop_mean_size_tolerance;
  ]
