open Sim_engine

let test_initial_time () =
  let sim = Sim.create () in
  Alcotest.(check (float 0.0)) "starts at 0" 0.0 (Sim.now sim)

let test_schedule_and_run () =
  let sim = Sim.create () in
  let log = ref [] in
  ignore (Sim.schedule sim ~delay:2.0 (fun () -> log := ("b", Sim.now sim) :: !log));
  ignore (Sim.schedule sim ~delay:1.0 (fun () -> log := ("a", Sim.now sim) :: !log));
  Sim.run sim;
  match List.rev !log with
  | [ ("a", t1); ("b", t2) ] ->
    Alcotest.(check (float 1e-12)) "first at 1" 1.0 t1;
    Alcotest.(check (float 1e-12)) "second at 2" 2.0 t2
  | _ -> Alcotest.fail "wrong event sequence"

let test_nested_scheduling () =
  let sim = Sim.create () in
  let fired = ref [] in
  ignore
    (Sim.schedule sim ~delay:1.0 (fun () ->
         fired := 1 :: !fired;
         ignore (Sim.schedule sim ~delay:0.5 (fun () -> fired := 2 :: !fired))));
  Sim.run sim;
  Alcotest.(check (list int)) "nested fires" [ 1; 2 ] (List.rev !fired);
  Alcotest.(check (float 1e-12)) "clock at 1.5" 1.5 (Sim.now sim)

let test_run_until () =
  let sim = Sim.create () in
  let fired = ref 0 in
  ignore (Sim.schedule sim ~delay:1.0 (fun () -> incr fired));
  ignore (Sim.schedule sim ~delay:5.0 (fun () -> incr fired));
  Sim.run ~until:2.0 sim;
  Alcotest.(check int) "only first fired" 1 !fired;
  Alcotest.(check (float 1e-12)) "clock clamped to limit" 2.0 (Sim.now sim)

let test_run_until_idle_clock () =
  let sim = Sim.create () in
  Sim.run ~until:10.0 sim;
  Alcotest.(check (float 1e-12)) "idle clock advances to limit" 10.0
    (Sim.now sim)

let test_negative_delay_rejected () =
  let sim = Sim.create () in
  Alcotest.check_raises "negative delay"
    (Invalid_argument "Sim.schedule: negative delay") (fun () ->
      ignore (Sim.schedule sim ~delay:(-1.0) ignore))

let test_past_schedule_rejected () =
  let sim = Sim.create () in
  ignore (Sim.schedule sim ~delay:5.0 ignore);
  Sim.run sim;
  match Sim.schedule_at sim ~time:1.0 ignore with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

let test_cancel_via_sim () =
  let sim = Sim.create () in
  let fired = ref false in
  let h = Sim.schedule sim ~delay:1.0 (fun () -> fired := true) in
  Sim.cancel sim h;
  Sim.run sim;
  Alcotest.(check bool) "cancelled" false !fired

let test_pending_events () =
  let sim = Sim.create () in
  ignore (Sim.schedule sim ~delay:1.0 ignore);
  ignore (Sim.schedule sim ~delay:2.0 ignore);
  Alcotest.(check int) "two pending" 2 (Sim.pending_events sim);
  Sim.run sim;
  Alcotest.(check int) "none pending" 0 (Sim.pending_events sim)

let test_seeded_rng () =
  let sim1 = Sim.create ~seed:5 () and sim2 = Sim.create ~seed:5 () in
  Alcotest.(check int64) "same rng stream"
    (Rng.int64 (Sim.rng sim1))
    (Rng.int64 (Sim.rng sim2))

let test_resume_run () =
  let sim = Sim.create () in
  let fired = ref 0 in
  ignore (Sim.schedule sim ~delay:1.0 (fun () -> incr fired));
  ignore (Sim.schedule sim ~delay:3.0 (fun () -> incr fired));
  Sim.run ~until:2.0 sim;
  Alcotest.(check int) "one fired" 1 !fired;
  Sim.run ~until:4.0 sim;
  Alcotest.(check int) "both fired after resume" 2 !fired

(* Pushed back on every call and then pulled in once: one expiry, at the
   last deadline, however many sets came before. *)
let test_timer_reset () =
  let sim = Sim.create () in
  let fired = ref [] in
  let tm = Sim.Timer.create sim (fun () -> fired := Sim.now sim :: !fired) in
  Sim.Timer.set tm ~delay:1.0;
  for i = 1 to 8 do
    ignore
      (Sim.schedule sim ~delay:(0.25 *. float_of_int i) (fun () ->
           Sim.Timer.set tm ~delay:1.0))
  done;
  ignore (Sim.schedule sim ~delay:2.5 (fun () -> Sim.Timer.set tm ~delay:0.25));
  Sim.run ~until:2.6 sim;
  Alcotest.(check bool) "set before expiry" true (Sim.Timer.is_set tm);
  Alcotest.(check int) "one pending expiry" 1 (Sim.pending_events sim);
  Sim.run sim;
  Alcotest.(check (list (float 1e-12))) "fires once, at 2.75" [ 2.75 ]
    (List.rev !fired);
  Alcotest.(check bool) "not set after expiry" false (Sim.Timer.is_set tm);
  Alcotest.(check int) "nothing pending" 0 (Sim.pending_events sim)

let test_timer_stop () =
  let sim = Sim.create () in
  let fired = ref [] in
  let tm = Sim.Timer.create sim (fun () -> fired := Sim.now sim :: !fired) in
  Sim.Timer.set tm ~delay:1.0;
  Sim.Timer.set tm ~delay:2.0;
  Sim.Timer.stop tm;
  Alcotest.(check bool) "stopped" false (Sim.Timer.is_set tm);
  Sim.run ~until:3.0 sim;
  Alcotest.(check (list (float 0.0))) "a stopped timer never fires" []
    !fired;
  Sim.Timer.stop tm;
  Sim.Timer.set tm ~delay:1.0;
  Sim.run sim;
  Alcotest.(check (list (float 1e-12))) "re-set after stop" [ 4.0 ] !fired;
  Alcotest.check_raises "negative delay"
    (Invalid_argument "Sim.Timer.set: negative delay") (fun () ->
      Sim.Timer.set tm ~delay:(-1.0))

let tests =
  [
    Alcotest.test_case "initial time" `Quick test_initial_time;
    Alcotest.test_case "schedule and run" `Quick test_schedule_and_run;
    Alcotest.test_case "nested scheduling" `Quick test_nested_scheduling;
    Alcotest.test_case "run until" `Quick test_run_until;
    Alcotest.test_case "idle clock advance" `Quick test_run_until_idle_clock;
    Alcotest.test_case "negative delay" `Quick test_negative_delay_rejected;
    Alcotest.test_case "past schedule" `Quick test_past_schedule_rejected;
    Alcotest.test_case "cancel" `Quick test_cancel_via_sim;
    Alcotest.test_case "pending events" `Quick test_pending_events;
    Alcotest.test_case "seeded rng" `Quick test_seeded_rng;
    Alcotest.test_case "resume run" `Quick test_resume_run;
    Alcotest.test_case "timer reset fires once" `Quick test_timer_reset;
    Alcotest.test_case "timer stop" `Quick test_timer_stop;
  ]
