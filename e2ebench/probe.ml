(* Per-layer instrumentation, all from outside the library: CCA
   constructors re-registered as delegating wrappers, a delegating
   [Sim_backend.S] module, a [Trace.Metrics] sink, and [Sim.run ~until]
   sliced into one-simulated-second spans. *)

module E = Tcpflow.Experiment
module Trace = Sim_engine.Trace

(* ---- cca: wrappers registered under the built-in names ---- *)

let cca_names = [| "cubic"; "bbr"; "bbr2" |]

type cca_stats = {
  ack_calls : int array;  (** Per [cca_names] slot. *)
  ack_ns : int array;
  mutable send_calls : int;
  mutable send_ns : int;
  mutable queries : int;  (** [cwnd_bytes] plus [pacing_rate] calls. *)
}

let cca =
  {
    ack_calls = Array.make (Array.length cca_names) 0;
    ack_ns = Array.make (Array.length cca_names) 0;
    send_calls = 0;
    send_ns = 0;
    queries = 0;
  }

let reset_cca () =
  Array.fill cca.ack_calls 0 (Array.length cca_names) 0;
  Array.fill cca.ack_ns 0 (Array.length cca_names) 0;
  cca.send_calls <- 0;
  cca.send_ns <- 0;
  cca.queries <- 0

let originals =
  lazy
    (Array.map
       (fun name ->
         match Cca.Registry.find name with
         | Some ctor -> ctor
         | None -> invalid_arg ("no built-in CCA " ^ name))
       cca_names)

(* The wrappers mutate [cca] without synchronisation: the packet workloads
   run at one job, so every call comes from the main domain. *)
let wrap slot (ctor : Cca.Registry.constructor) ~mss ~rng =
  let c : Cca.Cc_types.t = ctor ~mss ~rng in
  {
    c with
    on_ack =
      (fun a ->
        let t0 = Clock.ns () in
        c.on_ack a;
        cca.ack_ns.(slot) <- cca.ack_ns.(slot) + (Clock.ns () - t0);
        cca.ack_calls.(slot) <- cca.ack_calls.(slot) + 1);
    on_send =
      (fun ~now ~inflight_bytes ->
        let t0 = Clock.ns () in
        c.on_send ~now ~inflight_bytes;
        cca.send_ns <- cca.send_ns + (Clock.ns () - t0);
        cca.send_calls <- cca.send_calls + 1);
    cwnd_bytes =
      (fun () ->
        cca.queries <- cca.queries + 1;
        c.cwnd_bytes ());
    pacing_rate =
      (fun () ->
        cca.queries <- cca.queries + 1;
        c.pacing_rate ());
  }

let install_cca_wrappers () =
  Array.iteri
    (fun slot ctor -> Cca.Registry.register cca_names.(slot) (wrap slot ctor))
    (Lazy.force originals)

let restore_ccas () =
  Array.iteri
    (fun slot ctor -> Cca.Registry.register cca_names.(slot) ctor)
    (Lazy.force originals)

(* ---- sim_backend: a delegating backend recording one span per call ---- *)

type call = {
  backend : string;
  specs : int;
  t0 : float;
  t1 : float;
  words : float;  (** Minor words the calling domain allocated. *)
}

let calls : call list ref = ref []
let calls_lock = Mutex.create ()

let record backend specs f =
  let w0 = Gc.minor_words () and t0 = Clock.now_s () in
  let v = f () in
  let t1 = Clock.now_s () and w1 = Gc.minor_words () in
  Mutex.protect calls_lock (fun () ->
      calls := { backend; specs; t0; t1; words = w1 -. w0 } :: !calls);
  v

let take_calls () =
  Mutex.protect calls_lock (fun () ->
      let c = List.rev !calls in
      calls := [];
      c)

let delegate (b : Sim_backend.t) : Sim_backend.t =
  let module B = (val b) in
  (module struct
    let name = B.name
    let supports = B.supports
    let validate = B.validate
    let digest = B.digest
    let run s = record B.name 1 (fun () -> B.run s)
    let run_batch a = record B.name (Array.length a) (fun () -> B.run_batch a)
  end)

(* ---- sim_engine / tcpflow / netsim: one traced packet run ---- *)

type packet_stats = {
  mutable setup_s : float;
  mutable run_s : float;  (** Host time inside [Sim.run]. *)
  mutable finish_s : float;
  mutable pending_max : int;
  mutable job_spans : float list;  (** One per config, for [exec.*]. *)
  mutable summaries : Trace.Metrics.summary list;
}

let packet =
  {
    setup_s = 0.0;
    run_s = 0.0;
    finish_s = 0.0;
    pending_max = 0;
    job_spans = [];
    summaries = [];
  }

let reset_packet () =
  packet.setup_s <- 0.0;
  packet.run_s <- 0.0;
  packet.finish_s <- 0.0;
  packet.pending_max <- 0;
  packet.job_spans <- [];
  packet.summaries <- []

(* [Experiment.setup]/[finish] around a [Sim.run] advanced one simulated
   second at a time, with a counters-only metrics sink on the hub (a
   one-record ring: nothing but the sink keeps events). *)
let traced_run (config : E.config) =
  let start = Clock.now_s () in
  let hub = Trace.create ~ring_capacity:1 () in
  let metrics = Trace.Metrics.create ~rate_bps:(config.rate_bps :> float) () in
  Trace.subscribe hub (Trace.Metrics.observe metrics);
  let live, setup_s = Clock.time (fun () -> E.setup ~trace:hub config) in
  let sim = E.live_sim live in
  let horizon = (config.duration :> float) in
  let rec slices t =
    if t < horizon then begin
      let until = Float.min horizon (t +. 1.0) in
      let (), dt = Clock.time (fun () -> Sim_engine.Sim.run ~until sim) in
      packet.run_s <- packet.run_s +. dt;
      packet.pending_max <-
        max packet.pending_max (Sim_engine.Sim.pending_events sim);
      slices until
    end
  in
  slices 0.0;
  let result, finish_s = Clock.time (fun () -> E.finish live) in
  Trace.close hub;
  packet.setup_s <- packet.setup_s +. setup_s;
  packet.finish_s <- packet.finish_s +. finish_s;
  packet.summaries <- Trace.Metrics.summary metrics :: packet.summaries;
  packet.job_spans <- (Clock.now_s () -. start) :: packet.job_spans;
  result

(* ---- Exec.Cache: per-call store and find cost on the workload's own
   keys and values, in a temporary directory ---- *)

let cache_probe dir (pairs : (string * 'a) list) =
  let cache = Sim_engine.Exec.Cache.create dir in
  let n = float_of_int (max 1 (List.length pairs)) in
  let (), store_s =
    Clock.time (fun () ->
        List.iter (fun (key, v) -> Sim_engine.Exec.Cache.store cache ~key v) pairs)
  in
  let (), find_s =
    Clock.time (fun () ->
        List.iter
          (fun (key, _) ->
            match (Sim_engine.Exec.Cache.find cache ~key : 'a option) with
            | Some _ -> ()
            | None -> failwith "cache probe: stored entry not found")
          pairs)
  in
  (store_s /. n, find_s /. n)
