(* Differential test for the event core: the pooled heap plus calendar
   lanes must pop events in exactly the order a naive sorted-list scheduler
   would — (time, seq) lexicographic, where seq is drawn from the shared
   counter in schedule-call order.

   The reference model mirrors every [Sim.schedule] / [Sim.schedule_packet]
   call with its own (time, seq, id) record and sorts at the end; the real
   simulator records the ids (and times) its callbacks fire. Lane pushes use
   random delays on shared lanes, so FIFO violations (and the heap-fallback
   path) occur constantly; cancels target random handles including stale
   ones, so slot reuse under the stamp discipline is exercised too.

   Timer operations are modelled eagerly: [Sim.Timer.set] is a cancel of
   the timer's pending expiry plus a fresh schedule, [Sim.Timer.stop] a
   cancel. Random delays make sets move deadlines both earlier and later
   than a pending expiry (and the run counts both), so the real timer's
   kept-entry and re-insert paths must reproduce the eager stream. *)

open Sim_engine

type ref_event = {
  r_time : float;
  r_seq : int;
  r_id : int;
  mutable r_cancelled : bool;
}

(* Deterministic LCG: simlint R1 bans [Random] and the op stream must be
   reproducible across runs anyway. *)
let make_lcg seed =
  let st = ref (seed land 0x3FFFFFFFFFFF) in
  fun bound ->
    st := ((!st * 25214903917) + 11) land 0x3FFFFFFFFFFF;
    !st mod bound

let run_differential ~seed ~rounds ~ops_per_round ~n_lanes ~n_timers =
  let rand = make_lcg seed in
  let sim = Sim.create () in
  let fired = ref [] in
  let fired_ids = Hashtbl.create 256 in
  let record id =
    fired := (id, Sim.now sim) :: !fired;
    Hashtbl.replace fired_ids id ()
  in
  let lanes = Array.init n_lanes (fun _ -> Sim.lane sim ~dummy:(-1) ~deliver:record) in
  (* Per timer: the reference entry of its latest set, whose id the action
     records. *)
  let timer_entry = Array.make n_timers None in
  let timers =
    Array.init n_timers (fun k ->
        Sim.Timer.create sim (fun () ->
            match timer_entry.(k) with
            | Some e -> record e.r_id
            | None -> Alcotest.fail "timer fired without a set"))
  in
  let pending e = (not e.r_cancelled) && not (Hashtbl.mem fired_ids e.r_id) in
  let earlier_sets = ref 0 and later_sets = ref 0 in
  let reference = ref [] in
  let seq_counter = ref 0 in
  let next_id = ref 0 in
  let handles = ref [] in
  let n_handles = ref 0 in
  for _round = 1 to rounds do
    let now = Sim.now sim in
    for _op = 1 to ops_per_round do
      let delay = float_of_int (rand 2000) /. 1000.0 in
      match rand 13 with
      | 0 | 1 | 2 | 3 ->
        (* Heap-scheduled timer. *)
        let id = !next_id in
        incr next_id;
        let entry =
          { r_time = now +. delay; r_seq = !seq_counter; r_id = id;
            r_cancelled = false }
        in
        incr seq_counter;
        let h = Sim.schedule sim ~delay (fun () -> record id) in
        reference := entry :: !reference;
        handles := (h, entry) :: !handles;
        incr n_handles
      | 4 | 5 | 6 | 7 ->
        (* Lane delivery; random delays on a shared lane frequently violate
           FIFO and take the heap-fallback path. Either way one seq is
           drawn, so the reference is substrate-agnostic. *)
        let id = !next_id in
        incr next_id;
        let entry =
          { r_time = now +. delay; r_seq = !seq_counter; r_id = id;
            r_cancelled = false }
        in
        incr seq_counter;
        Sim.schedule_packet sim lanes.(rand n_lanes) ~delay id;
        reference := entry :: !reference
      | 8 | 9 -> (
        (* Cancel a random handle — possibly one whose event already fired
           (stale; must no-op even if the pool slot was reused). *)
        match !handles with
        | [] -> ()
        | hs ->
          let h, entry = List.nth hs (rand !n_handles) in
          Sim.cancel sim h;
          if pending entry then entry.r_cancelled <- true)
      | 10 | 11 ->
        (* Timer set: cancel the pending expiry, schedule a new one. *)
        let k = rand n_timers in
        (match timer_entry.(k) with
        | Some e when pending e ->
          if now +. delay < e.r_time then incr earlier_sets else incr later_sets;
          e.r_cancelled <- true
        | Some _ | None -> ());
        let id = !next_id in
        incr next_id;
        let entry =
          { r_time = now +. delay; r_seq = !seq_counter; r_id = id;
            r_cancelled = false }
        in
        incr seq_counter;
        timer_entry.(k) <- Some entry;
        Sim.Timer.set timers.(k) ~delay;
        reference := entry :: !reference
      | _ -> (
        (* Timer stop, pending or not. *)
        let k = rand n_timers in
        Sim.Timer.stop timers.(k);
        match timer_entry.(k) with
        | Some e when pending e -> e.r_cancelled <- true
        | Some _ | None -> ())
    done;
    Sim.run ~until:(now +. 0.5) sim
  done;
  Sim.run sim;
  let expected =
    !reference
    |> List.filter (fun e -> not e.r_cancelled)
    |> List.sort (fun a b ->
           match Float.compare a.r_time b.r_time with
           | 0 -> Int.compare a.r_seq b.r_seq
           | c -> c)
    |> List.map (fun e -> (e.r_id, e.r_time))
  in
  let actual = List.rev !fired in
  Alcotest.(check bool)
    (Printf.sprintf "seed %d: sets moved deadlines earlier (%d) and later (%d)"
       seed !earlier_sets !later_sets)
    true
    (!earlier_sets > 0 && !later_sets > 0);
  Alcotest.(check int)
    (Printf.sprintf "seed %d: event count" seed)
    (List.length expected) (List.length actual);
  if expected <> actual then begin
    let rec first_diff i = function
      | (e, et) :: es, (a, at) :: as_ ->
        if e <> a || et <> at then
          Alcotest.failf
            "seed %d: divergence at pop %d: expected id %d at %g, got id %d \
             at %g"
            seed i e et a at
        else first_diff (i + 1) (es, as_)
      | _ -> Alcotest.failf "seed %d: pop streams differ in length" seed
    in
    first_diff 0 (expected, actual)
  end

let test_differential () =
  List.iter
    (fun seed ->
      run_differential ~seed ~rounds:40 ~ops_per_round:30 ~n_lanes:4
        ~n_timers:3)
    [ 1; 7; 42; 1234; 99991 ]

let test_differential_single_lane () =
  (* One shared lane maximizes FIFO violations, so the heap-fallback path
     carries most of the lane traffic. *)
  List.iter
    (fun seed ->
      run_differential ~seed ~rounds:25 ~ops_per_round:40 ~n_lanes:1
        ~n_timers:3)
    [ 3; 17; 2026 ]

let tests =
  [
    Alcotest.test_case "heap + lanes match sorted-list reference" `Quick
      test_differential;
    Alcotest.test_case "single-lane stream matches reference" `Quick
      test_differential_single_lane;
  ]
