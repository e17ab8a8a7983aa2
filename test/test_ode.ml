(* Unit and property tests for the control-theoretic ODE backend
   ({!Fluidsim.Ode_model}).

   The unit half pins the mechanical contract: a lone flow fills the
   link, the fixed-step and adaptive integrators land on the same
   outcome, bad configs are rejected eagerly, and the result is
   well-formed. The QCheck half states the model-level properties from
   the paper's analysis in [test/test_model_props.ml] style, on the
   per-flow goodputs every backend reports: identical flows get
   identical goodput, homogeneous mixes settle to a fixed point (the
   smoothed dynamics cannot sawtooth, so a later warm-up measures the
   same goodput), and — matching the analytic two-flow property — BBR's
   share against CUBIC never (materially) grows as the buffer deepens. *)

module U = Sim_engine.Units
module F = Fluidsim.Fluid_sim
module O = Fluidsim.Ode_model

let cfg ?(duration = 30.0) ?(warmup = 10.0)
    ?(integrator = O.default_config.O.integrator) ~mbps ~rtt_ms ~buffer_bdp
    kinds =
  let rate_bps = U.mbps mbps in
  let rtt = U.ms rtt_ms in
  {
    O.capacity_bps = rate_bps;
    buffer_bytes = U.scale buffer_bdp (U.bdp_bytes ~rate_bps ~rtt);
    flows = List.map (fun kind -> { F.kind; rtt }) kinds;
    duration = U.seconds duration;
    warmup = U.seconds warmup;
    integrator;
  }

let kind_name = function
  | F.Cubic -> "cubic"
  | F.Bbr -> "bbr"
  | F.Bbr2 -> "bbr2"

(* --- unit tests ------------------------------------------------------ *)

let test_single_flow_fills_link () =
  List.iter
    (fun kind ->
      let r = O.run (cfg ~mbps:50.0 ~rtt_ms:40.0 ~buffer_bdp:1.0 [ kind ]) in
      let util = Array.fold_left ( +. ) 0.0 r.O.per_flow_bps /. 50e6 in
      if util < 0.97 || util > 1.001 then
        Alcotest.failf "%s alone: utilization %.4f outside [0.97, 1.001]"
          (kind_name kind) util)
    [ F.Cubic; F.Bbr; F.Bbr2 ]

let test_integrators_agree () =
  let mk integrator =
    cfg ~integrator ~mbps:100.0 ~rtt_ms:40.0 ~buffer_bdp:4.0
      [ F.Cubic; F.Bbr ]
  in
  let fixed = O.run (mk (O.Rk4 (U.ms 1.0))) in
  let adaptive = O.run (mk O.default_config.O.integrator) in
  Array.iteri
    (fun i bps ->
      let delta = Float.abs (bps -. adaptive.O.per_flow_bps.(i)) in
      if delta > 0.01 *. 100e6 then
        Alcotest.failf "flow %d: Rk4 %.2f vs Adaptive %.2f Mbps" i (bps /. 1e6)
          (adaptive.O.per_flow_bps.(i) /. 1e6))
    fixed.O.per_flow_bps;
  Alcotest.(check bool)
    "adaptive takes far fewer steps" true
    (adaptive.O.steps * 10 < fixed.O.steps)

let test_validation () =
  let base = cfg ~mbps:50.0 ~rtt_ms:40.0 ~buffer_bdp:1.0 [ F.Cubic ] in
  let expect msg c =
    Alcotest.check_raises msg (Invalid_argument msg) (fun () ->
        ignore (O.run c))
  in
  expect "Ode_model: no flows" { base with O.flows = [] };
  expect "Ode_model: duration must be > 0"
    { base with O.duration = U.seconds 0.0 };
  expect "Ode_model: need 0 <= warmup < duration"
    { base with O.warmup = base.O.duration };
  expect "Ode_model: capacity must be > 0"
    { base with O.capacity_bps = U.bps 0.0 };
  expect "Ode_model: Rk4 dt must be > 0"
    { base with O.integrator = O.Rk4 (U.seconds 0.0) };
  (* NaN passes a bare [x <= 0.0] test. *)
  expect "Ode_model: duration must be > 0"
    { base with O.duration = U.seconds nan };
  expect "Ode_model: capacity must be > 0"
    { base with O.capacity_bps = U.bps nan };
  expect "Ode_model: flow rtt must be > 0"
    { base with O.flows = [ { F.kind = F.Cubic; rtt = U.seconds nan } ] }

let test_result_sanity () =
  let c = O.default_config in
  let r = O.run c in
  Alcotest.(check bool) "steps positive" true (r.O.steps > 0);
  Alcotest.(check bool) "rejections non-negative" true (r.O.rejected_steps >= 0);
  Alcotest.(check bool)
    "expected back-offs non-negative" true
    (r.O.expected_backoffs >= 0.0);
  Alcotest.(check bool)
    "queue within buffer" true
    (r.O.mean_queue_bytes >= 0.0
    && r.O.mean_queue_bytes <= U.Raw.to_float c.O.buffer_bytes);
  Alcotest.(check bool)
    "kind mean for absent kind is nan" true
    (Float.is_nan (O.mean_bps_of_kind r F.Bbr2))

(* --- QCheck properties ----------------------------------------------- *)

(* mbps, rtt_ms, buffer_bdp over the regime the grid calibrates. *)
let params_gen =
  QCheck.Gen.(
    map3
      (fun mbps rtt_ms buffer_bdp -> (mbps, rtt_ms, buffer_bdp))
      (float_range 10.0 100.0) (float_range 10.0 80.0) (float_range 0.5 16.0))

let pp_params (m, r, b) = Printf.sprintf "mbps=%g rtt=%gms buffer=%gbdp" m r b

(* 2-4 flows of one kind on one RTT. *)
let homogeneous_arb =
  QCheck.make
    QCheck.Gen.(
      pair params_gen (pair (int_range 2 4) (oneofl [ F.Cubic; F.Bbr; F.Bbr2 ])))
    ~print:(fun (p, (n, kind)) ->
      Printf.sprintf "%s %dx %s" (pp_params p) n (kind_name kind))

let prop_identical_flows_identical_goodput =
  (* Flows of one kind on one RTT start from the same state and see the
     same queue, so the integrator computes the same numbers for each. *)
  QCheck.Test.make ~name:"identical flows get identical goodput" ~count:100
    homogeneous_arb
    (fun ((mbps, rtt_ms, buffer_bdp), (n, kind)) ->
      let r =
        O.run (cfg ~mbps ~rtt_ms ~buffer_bdp (List.init n (fun _ -> kind)))
      in
      Array.for_all (Float.equal r.O.per_flow_bps.(0)) r.O.per_flow_bps)

let prop_homogeneous_settles =
  (* With identical flows the smoothed dynamics have a symmetric fixed
     point and no mechanism to oscillate around it, so by 40 s the rates
     have settled: measuring from 50 s instead moves no flow's goodput by
     more than 1 % of capacity. *)
  QCheck.Test.make ~name:"homogeneous mixes settle (warm-up independent)"
    ~count:100 homogeneous_arb
    (fun ((mbps, rtt_ms, buffer_bdp), (n, kind)) ->
      let goodput warmup =
        (O.run
           (cfg ~duration:60.0 ~warmup ~mbps ~rtt_ms ~buffer_bdp
              (List.init n (fun _ -> kind))))
          .O.per_flow_bps
      in
      let early = goodput 40.0 and late = goodput 50.0 in
      let tol = 0.01 *. mbps *. 1e6 in
      Array.for_all2 (fun a b -> Float.abs (a -. b) <= tol) early late)

let prop_bbr_share_monotone =
  (* The analytic two-flow property ("bbr share non-increasing in buffer
     depth", test_model_props.ml) restated on the ODE backend: deepening
     the buffer never buys BBR more than [eps] additional share against
     CUBIC. The epsilon absorbs sub-0.1% wiggle near the shallow-buffer
     plateau where BBR holds (almost) everything either way. *)
  let eps = 0.01 in
  let arb =
    QCheck.make
      QCheck.Gen.(
        map3
          (fun (m, r, _) b1 b2 -> (m, r, Float.min b1 b2, Float.max b1 b2))
          params_gen (float_range 0.25 32.0) (float_range 0.25 32.0))
      ~print:(fun (m, r, b1, b2) ->
        Printf.sprintf "mbps=%g rtt=%gms buffers=%gbdp<=%gbdp" m r b1 b2)
  in
  QCheck.Test.make ~name:"bbr share non-increasing in buffer depth" ~count:60
    arb (fun (mbps, rtt_ms, b1, b2) ->
      let share buffer_bdp =
        let r =
          O.run
            (cfg ~duration:60.0 ~warmup:20.0 ~mbps ~rtt_ms ~buffer_bdp
               [ F.Cubic; F.Bbr ])
        in
        O.mean_bps_of_kind r F.Bbr /. (mbps *. 1e6)
      in
      share b2 <= share b1 +. eps)

let tests =
  [
    Alcotest.test_case "single flow fills the link" `Quick
      test_single_flow_fills_link;
    Alcotest.test_case "Rk4 and Adaptive integrators agree" `Quick
      test_integrators_agree;
    Alcotest.test_case "config validation" `Quick test_validation;
    Alcotest.test_case "result sanity" `Quick test_result_sanity;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        prop_identical_flows_identical_goodput;
        prop_homogeneous_settles;
        prop_bbr_share_monotone;
      ]
