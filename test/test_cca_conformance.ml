(* The CCA conformance matrix: every algorithm in the registry is pushed
   through the same adversarial scenarios (a loss burst, an RTT step,
   app-limited idling) via the synthetic Cca_driver, and must keep its
   window finite, positive and above the conventional floor, with a pacing
   rate that is either nan (ACK-clocked) or strictly positive. BBR-family
   algorithms must additionally visit ProbeRTT once their RTprop estimate
   ages out, and their trajectories through these scripts are pinned. *)

open Cca.Cc_types

let mss = 1500

(* The built-ins; custom registrations from other test modules (alcotest
   runs suites in one process) are excluded deliberately. *)
let conformance_names =
  [ "reno"; "cubic"; "bbr"; "bbr2"; "copa"; "vegas"; "vivace" ]

let make name =
  Cca.Registry.create name ~mss ~rng:(Sim_engine.Rng.create 77)

let check_sane name (cc : t) ~context =
  let cwnd = cc.cwnd_bytes () in
  if not (Float.is_finite cwnd) then
    Alcotest.failf "%s: non-finite cwnd %g %s" name cwnd context;
  if cwnd < float_of_int (2 * mss) -. 1e-6 then
    Alcotest.failf "%s: cwnd %g below the 2-MSS floor %s" name cwnd context;
  let pacing = cc.pacing_rate () in
  if (not (Float.is_nan pacing)) && pacing <= 0.0 then
    Alcotest.failf "%s: pacing rate %g not positive %s" name pacing context

(* Grow for a while, hit a burst of losses, then recover. *)
let scenario_loss_burst name cc =
  let now, round =
    Cca_driver.feed_rounds cc ~rounds:20 ~per_round:10 ~rtt:0.04 ~rate:2e6
      ~start_now:0.0 ~start_round:0
  in
  check_sane name cc ~context:"after growth";
  let after_growth = cc.cwnd_bytes () in
  for i = 0 to 4 do
    cc.on_loss
      (Cca_driver.loss
         ~now:(now +. (0.001 *. float_of_int i))
         ~inflight:(10 * mss) ())
  done;
  check_sane name cc ~context:"after loss burst";
  let after_loss = cc.cwnd_bytes () in
  if after_loss > after_growth +. 1e-6 then
    Alcotest.failf "%s: loss burst grew cwnd %g -> %g" name after_growth
      after_loss;
  let _ =
    Cca_driver.feed_rounds cc ~rounds:50 ~per_round:10 ~rtt:0.04 ~rate:2e6
      ~start_now:(now +. 0.01) ~start_round:round
  in
  check_sane name cc ~context:"after recovery";
  (* Recovery must not wedge the window: window-based CCAs re-grow from the
     trough; rate-based ones (vivace) converge toward the observed delivery
     rate, which may sit somewhat below the trough — but a collapse to half
     of it means the burst broke the algorithm. *)
  if cc.cwnd_bytes () < (0.5 *. after_loss) -. 1e-6 then
    Alcotest.failf "%s: window wedged after loss burst (%g -> %g)" name
      after_loss (cc.cwnd_bytes ())

(* A sudden 5x RTT increase (path change / bufferbloat) must not produce
   NaN or a collapse below the floor. *)
let scenario_rtt_step name cc =
  let now, round =
    Cca_driver.feed_rounds cc ~rounds:20 ~per_round:10 ~rtt:0.04 ~rate:2e6
      ~start_now:0.0 ~start_round:0
  in
  check_sane name cc ~context:"before rtt step";
  let _ =
    Cca_driver.feed_rounds cc ~rounds:20 ~per_round:10 ~rtt:0.2 ~rate:2e6
      ~start_now:now ~start_round:round
  in
  check_sane name cc ~context:"after rtt step"

(* App-limited idling: tiny ACK volume, rate samples flagged app-limited.
   The window must stay sane and the flags must not poison rate state. *)
let scenario_app_limited_idle name cc =
  let now, _ =
    Cca_driver.feed_rounds cc ~rounds:10 ~per_round:10 ~rtt:0.04 ~rate:2e6
      ~start_now:0.0 ~start_round:0
  in
  for i = 1 to 50 do
    cc.on_ack
      (Cca_driver.ack
         ~now:(now +. (0.04 *. float_of_int i))
         ~acked:100 ~rate:1e4 ~app_limited:true ~inflight:200
         ~round:(10 + i) ~round_start:true ())
  done;
  check_sane name cc ~context:"after app-limited idle"

let test_matrix () =
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " registered") true
        (List.mem name (Cca.Registry.names ()));
      scenario_loss_burst name (make name);
      scenario_rtt_step name (make name);
      scenario_app_limited_idle name (make name))
    conformance_names

(* BBR-family: RTprop expires after ~10 s of samples above the minimum, so
   a long steady drive must pass through ProbeRTT at least once. Returns
   whether it did. *)
let drive_probe_rtt cc =
  let now, round =
    Cca_driver.feed_rounds cc ~rounds:10 ~per_round:10 ~rtt:0.04 ~rate:2e6
      ~start_now:0.0 ~start_round:0
  in
  let seen = ref false in
  let now = ref now and round = ref round in
  for _ = 1 to 300 do
    incr round;
    now := !now +. 0.05;
    for i = 0 to 9 do
      cc.on_ack
        (Cca_driver.ack ~now:!now ~rtt:0.05 ~rate:2e6 ~round:!round
           ~round_start:(i = 0) ~inflight:(10 * mss) ())
    done;
    if String.equal (cc.state ()) "ProbeRTT" then seen := true
  done;
  !seen

let test_probe_rtt_entered () =
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " visited ProbeRTT") true
        (drive_probe_rtt (make name)))
    [ "bbr"; "bbr2" ]

(* [cc] with every ACK and loss followed by a line of the state it leaves
   behind: mode, cwnd and pacing rate, the floats in hex so every bit
   counts. *)
let recording buf cc =
  let record () =
    Printf.bprintf buf "%s %h %h\n" (cc.state ()) (cc.cwnd_bytes ())
      (cc.pacing_rate ())
  in
  {
    cc with
    on_ack =
      (fun a ->
        cc.on_ack a;
        record ());
    on_loss =
      (fun l ->
        cc.on_loss l;
        record ());
  }

(* MD5 of the recorded trajectory of [name] through the four scripts
   above, each on a fresh instance. *)
let trajectory_digest name =
  let buf = Buffer.create 65536 in
  let fresh () = recording buf (make name) in
  scenario_loss_burst name (fresh ());
  scenario_rtt_step name (fresh ());
  scenario_app_limited_idle name (fresh ());
  ignore (drive_probe_rtt (fresh ()) : bool);
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* Every state, window and pacing rate of the BBR family through the
   scripts, pinned bit for bit. The scripts send their first ACK at
   0.04 s, before any RTprop could expire. *)
let pinned_trajectories =
  [
    ("bbr", "7f22ff62876f0fd2cea0d455677b067c");
    ("bbr2", "af096f33ce8831e03f3f8b38501f710c");
  ]

let test_pinned_trajectories () =
  List.iter
    (fun (name, digest) ->
      Alcotest.(check string) (name ^ " trajectory") digest
        (trajectory_digest name))
    pinned_trajectories

(* A first ACK long after construction, as for a flow that joins a run
   late, finds no RTprop estimate yet: nothing has expired, so the flow
   stays in Startup. *)
let test_late_first_ack_stays_in_startup () =
  List.iter
    (fun name ->
      let cc = make name in
      cc.on_ack
        (Cca_driver.ack ~now:6.0 ~rtt:0.04 ~rate:1e6 ~round:1 ~round_start:true
           ());
      Alcotest.(check string)
        (Printf.sprintf "%s after a first ACK at 6 s (cwnd %g)" name
           (cc.cwnd_bytes ()))
        "Startup" (cc.state ()))
    [ "bbr"; "bbr2" ]

(* The sender reads both outputs when a flow activates, before any ACK:
   10 MSS of window and no pacing rate yet, for either variant. *)
let test_outputs_before_first_ack () =
  List.iter
    (fun name ->
      let cc = make name in
      Alcotest.(check (float 0.0)) (name ^ " initial cwnd")
        (float_of_int (10 * mss))
        (cc.cwnd_bytes ());
      Alcotest.(check bool) (name ^ " no pacing rate before an ACK") true
        (Float.is_nan (cc.pacing_rate ())))
    [ "bbr"; "bbr2" ]

let tests =
  [
    Alcotest.test_case "conformance matrix" `Quick test_matrix;
    Alcotest.test_case "bbr family enters ProbeRTT" `Quick
      test_probe_rtt_entered;
    Alcotest.test_case "bbr family trajectories pinned" `Quick
      test_pinned_trajectories;
    Alcotest.test_case "bbr family late first ACK stays in Startup" `Quick
      test_late_first_ack_stays_in_startup;
    Alcotest.test_case "bbr family outputs before the first ACK" `Quick
      test_outputs_before_first_ack;
  ]
