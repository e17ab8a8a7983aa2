module Sim = Sim_engine.Sim
module Tr = Sim_engine.Trace
module E = Tcpflow.Experiment

type outcome =
  | Pass
  | Violation of Audit.violation
  | Crash of string

let outcome_to_string = function
  | Pass -> "pass"
  | Violation v -> "violation: " ^ Audit.violation_to_string v
  | Crash msg -> "crash: " ^ msg

type fault = {
  fault_name : string;
  fault_apply : Tr.record -> Tr.record;
}

(* Faults must be stateless (decide from the record alone): campaign fans
   cases out over domains that share these closures. *)
let faults =
  [
    {
      fault_name = "inflight";
      fault_apply =
        (fun r ->
          match r.Tr.event with
          | Tr.Ack { seq; rtt_sample; delivered_bytes; inflight_bytes }
            when seq land 31 = 3 ->
            {
              r with
              Tr.event =
                Tr.Ack
                  {
                    seq;
                    rtt_sample;
                    delivered_bytes;
                    inflight_bytes = inflight_bytes + 1;
                  };
            }
          | _ -> r);
    };
    {
      fault_name = "delivered-rewind";
      fault_apply =
        (fun r ->
          match r.Tr.event with
          | Tr.Ack { seq; rtt_sample; delivered_bytes; inflight_bytes }
            when seq land 63 = 7 ->
            {
              r with
              Tr.event =
                Tr.Ack
                  {
                    seq;
                    rtt_sample;
                    delivered_bytes = delivered_bytes /. 2.0;
                    inflight_bytes;
                  };
            }
          | _ -> r);
    };
  ]

let fault_named name =
  List.find_opt (fun f -> String.equal f.fault_name name) faults

(* Ceilings for the Cc_sample checks. These have to be runaway guards, not
   tight physical bounds: rate-based CCAs with multiplicative search (Vivace
   doubles its rate every monitor interval until utility feedback turns it
   around, with no upper clamp) legitimately overshoot the link rate by
   orders of magnitude during startup on deep-buffered paths. NaN/inf and
   non-positive values are caught by the separate positivity checks, so the
   ceilings only need to flag unbounded drift — 1e12 B (~a terabyte window /
   8 Tbps pacing) is absurd for any scenario this generator produces. *)
let ceilings (_cfg : E.config) = (1e12, 1e12)

(* The packet backend: the full event stream under the auditor. *)
let run_audited ?fault scenario =
  let cfg = Scenario.to_config scenario in
  let hub = Tr.create ~ring_capacity:256 () in
  let cwnd_ceiling_bytes, pacing_ceiling_bps = ceilings cfg in
  let audit =
    Audit.create ~queue_capacity_bytes:cfg.E.buffer_bytes ~cwnd_ceiling_bytes
      ~pacing_ceiling_bps ~lifecycle:true ()
  in
  (match fault with
  | None -> Audit.attach audit hub
  | Some f ->
    Tr.subscribe_sink hub
      ~on_record:(fun r -> Audit.observe audit (f.fault_apply r))
      ~on_close:ignore);
  match E.setup ~trace:hub cfg with
  | exception e -> Crash (Printexc.to_string e)
  | live -> (
    let sim = E.live_sim live in
    let net = E.live_net live in
    let senders = E.live_senders live in
    (* Periodic probe: the transport's own O(window) self-check, at ~200
       points per run. A failure is converted into a violation, stamped
       with the probe time. *)
    let sender_failure = ref None in
    let duration = (cfg.E.duration :> float) in
    let period = Float.max 0.010 (duration /. 200.0) in
    let rec probe () =
      Array.iter
        (fun sender ->
          if Option.is_none !sender_failure then
            try Tcpflow.Sender.check_inflight_invariant sender
            with Failure msg ->
              sender_failure :=
                Some
                  {
                    Audit.invariant = "sender-self-check";
                    v_time = Sim.now sim;
                    v_flow = Tcpflow.Sender.flow sender;
                    v_index = Audit.records_seen audit;
                    detail = msg;
                  })
        senders;
      ignore (Sim.schedule sim ~delay:period probe)
    in
    ignore (Sim.schedule sim ~delay:period probe);
    match Sim.run ~until:duration sim with
    | exception e -> Crash (Printexc.to_string e)
    | () ->
      Tr.close hub;
      let queue = Netsim.Dumbbell.queue net in
      let link = Netsim.Dumbbell.link net in
      Audit.finalize audit
        {
          Audit.fin_time = Sim.now sim;
          fin_busy_seconds = (Netsim.Link.busy_seconds link :> float);
          fin_queue_bytes = Netsim.Droptail_queue.occupancy_bytes queue;
          fin_queue_packets = Netsim.Droptail_queue.length queue;
          fin_link_busy = Netsim.Link.busy link;
          fin_tx_slack_seconds =
            1500.0 *. 8.0 /. (cfg.E.rate_bps :> float);
          fin_enqueued_packets = Netsim.Droptail_queue.enqueued_packets queue;
          fin_dropped_packets = Netsim.Droptail_queue.drops queue;
          fin_delivered_packets = Netsim.Link.delivered_packets link;
          fin_inflight_bytes =
            Array.to_list
              (Array.map
                 (fun s ->
                   (Tcpflow.Sender.flow s, Tcpflow.Sender.inflight_bytes s))
                 senders);
          fin_completed_flows =
            Option.map Tcpflow.Churn.completed (E.live_churn live);
        };
      (match !sender_failure with
      | Some v -> Violation v
      | None -> (
        match Audit.first_violation audit with
        | Some v -> Violation v
        | None -> Pass)))

(* ---------- analytic-backend fuzzing ---------- *)

(* The analytic backends have no event stream for the auditor to replay,
   so their invariants are checked on the outcome instead: finiteness,
   conservation (goodput within capacity, queue within the buffer),
   determinism, and — for single-flow scenarios — fluid/ODE parity.
   Violations reuse {!Audit.violation} with the spec horizon as the time
   stamp and record index 0. *)

let outcome_violation ~invariant ~detail (scenario : Scenario.t) =
  {
    Audit.invariant;
    v_time = scenario.Scenario.duration_s;
    v_flow = Sim_engine.Trace.link_scope;
    v_index = 0;
    detail;
  }

let check_outcome ~backend scenario (o : Sim_backend.outcome) =
  let fail invariant detail =
    Some (outcome_violation ~invariant ~detail scenario)
  in
  let capacity = scenario.Scenario.mbps *. 1e6 in
  let spec = Scenario.to_spec scenario in
  let buffer =
    Sim_engine.Units.Raw.to_float spec.Sim_backend.buffer_bytes
  in
  let nonfinite =
    Array.exists (fun v -> not (Float.is_finite v)) o.Sim_backend.per_flow_bps
    || (not (Float.is_finite o.Sim_backend.mean_queue_bytes))
    || (not (Float.is_finite o.Sim_backend.mean_queuing_delay))
    || not (Float.is_finite o.Sim_backend.utilization)
  in
  if nonfinite then fail "backend-finite" "non-finite field in outcome"
  else if Array.exists (fun v -> v < 0.0) o.Sim_backend.per_flow_bps then
    fail "backend-positive" "negative per-flow goodput"
  else begin
    let total = Array.fold_left ( +. ) 0.0 o.Sim_backend.per_flow_bps in
    if total > capacity *. 1.01 then
      fail "backend-capacity"
        (Printf.sprintf "sum goodput %.3e bps exceeds capacity %.3e" total
           capacity)
    else if o.Sim_backend.mean_queue_bytes > (buffer *. 1.001) +. 1.0 then
      fail "backend-buffer"
        (Printf.sprintf "mean queue %.1f B exceeds buffer %.1f B"
           o.Sim_backend.mean_queue_bytes buffer)
    else if o.Sim_backend.mean_queue_bytes < 0.0 then
      fail "backend-buffer" "negative mean queue"
    else begin
      (* Determinism: a spec re-run must reproduce the outcome exactly. *)
      match Sim_backend.run backend spec with
      | Error e ->
        fail "backend-deterministic"
          ("re-run rejected: " ^ Format.asprintf "%a" Sim_backend.pp_error e)
      | Ok o2 ->
        if compare o o2 <> 0 then
          fail "backend-deterministic" "re-run produced a different outcome"
        else if
          (* Single-flow parity: on one flow both analytic backends must
             saturate (or identically under-use) the link; their mean
             goodputs were calibrated to agree within a few percent. *)
          Array.length o.Sim_backend.per_flow_bps = 1
          && List.exists
               (fun b -> String.equal (Sim_backend.name b) (Sim_backend.name backend))
               [ Sim_backend.fluid; Sim_backend.ode ]
        then begin
          let peer =
            if String.equal (Sim_backend.name backend) "fluid" then
              Sim_backend.ode
            else Sim_backend.fluid
          in
          (* Compare tail-window goodput: the backends model startup
             differently (probe schedules, slow-start exit), so the
             whole-run mean on a generated 3–8 s horizon measures mostly
             transient. A half-horizon warm-up on both sides tests the
             quasi-steady agreement the calibration promises. *)
          let tail_spec =
            {
              spec with
              Sim_backend.warmup =
                Sim_engine.Units.seconds (scenario.Scenario.duration_s /. 2.0);
            }
          in
          match (Sim_backend.run backend tail_spec, Sim_backend.run peer tail_spec) with
          | Error _, _ | _, Error _ ->
            None (* peer rejects (e.g. unsupported cca): skip *)
          | Ok so, Ok po ->
            let a = so.Sim_backend.per_flow_bps.(0)
            and b = po.Sim_backend.per_flow_bps.(0) in
            if Float.abs (a -. b) > 0.10 *. capacity then
              fail "backend-parity"
                (Printf.sprintf
                   "single-flow tail goodput %.3e (this) vs %.3e (%s) \
                    differs by more than 10%% of capacity"
                   a b (Sim_backend.name peer))
            else None
        end
        else None
    end
  end

let run_outcome_checked ~backend scenario =
  let spec = Scenario.to_spec scenario in
  match Sim_backend.run backend spec with
  | exception e -> Crash (Printexc.to_string e)
  | Error e -> Crash (Format.asprintf "%a" Sim_backend.pp_error e)
  | Ok o -> (
    match check_outcome ~backend scenario o with
    | Some v -> Violation v
    | None -> Pass)

let audited backend =
  String.equal (Sim_backend.name backend) (Sim_backend.name Sim_backend.packet)

let run_scenario ?fault ~backend scenario =
  if audited backend then run_audited ?fault scenario
  else if Option.is_some fault then
    invalid_arg "Fuzz.run_scenario: a fault needs the packet backend"
  else run_outcome_checked ~backend scenario

let backend_ccas backend =
  List.filter (Sim_backend.supports backend) (Cca.Registry.names ())

let fails ?fault ~backend scenario =
  match run_scenario ?fault ~backend scenario with
  | Pass -> false
  | Violation _ | Crash _ -> true

let shrink ?fault ~backend scenario =
  let ccas = backend_ccas backend in
  let rec go s budget =
    if budget = 0 then s
    else
      match
        List.find_opt (fails ?fault ~backend)
          (Scenario.shrink_candidates ~ccas s)
      with
      | None -> s
      | Some simpler -> go simpler (budget - 1)
  in
  if fails ?fault ~backend scenario then go scenario 64 else scenario

type case = {
  case_index : int;
  case_scenario : Scenario.t;
  case_outcome : outcome;
}

type campaign = {
  total : int;
  passed : int;
  failures : case list;
}

let campaign ?fault ~backend ?(jobs = 1) ~count ~seed () =
  if count <= 0 then invalid_arg "Fuzz.campaign: count";
  let scenarios =
    Array.of_list
      (Scenario.generate_batch ~ccas:(backend_ccas backend) ~seed ~count ())
  in
  let outcomes =
    Sim_engine.Exec.map ~jobs (run_scenario ?fault ~backend) scenarios
  in
  let failures = ref [] in
  Array.iteri
    (fun i outcome ->
      match outcome with
      | Pass -> ()
      | Violation _ | Crash _ ->
        failures :=
          {
            case_index = i;
            case_scenario = scenarios.(i);
            case_outcome = outcome;
          }
          :: !failures)
    outcomes;
  let failures = List.rev !failures in
  { total = count; passed = count - List.length failures; failures }

let replay ?fault ~backend path =
  match Scenario.load ~path with
  | Error _ as e -> e
  | Ok scenario -> Ok (scenario, run_scenario ?fault ~backend scenario)
