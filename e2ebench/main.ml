(* End-to-end benchmark.

     main.exe --workload W --seed N --seconds S --trace 0|1
       [--smoke] [--bless] [--corrupt-pin]

   Repeats the workload's batch (see [Plan]) for a fixed number of rounds,
   [S / Plan.round_s]: about [S] seconds on a 2-vCPU host. With
   [--trace 0] every round is untraced and the last stdout line carries
   the end-to-end metrics; with [--trace 1] untraced and traced rounds
   alternate and it carries the per-layer metrics. The line before it is
   a report with provenance and each metric's median, quartiles and
   sample count. [--setup-only DIR] is the set-up child (see
   [spawn_setup]). *)

module E = Tcpflow.Experiment
module Exec = Sim_engine.Exec
module Runs = Experiments.Runs

(* ---------------------------------------------------------------- *)
(* Command line                                                       *)

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  smoke : bool;
  bless : bool;
  corrupt_pin : bool;
  setup_only : string option;  (** Cache directory of a set-up child. *)
}

let usage () =
  prerr_endline
    "usage: main.exe --workload long-flows|churn|analytic-sweep --seed N \
     --seconds S --trace 0|1 [--smoke] [--bless] [--corrupt-pin]";
  exit 2

let parse_args () =
  let workload = ref None and seed = ref None and seconds = ref None in
  let trace = ref None and smoke = ref false and bless = ref false in
  let corrupt_pin = ref false and setup_only = ref None in
  let rec go = function
    | "--workload" :: v :: rest ->
      workload := Some v;
      go rest
    | "--seed" :: v :: rest ->
      seed := int_of_string_opt v;
      go rest
    | "--seconds" :: v :: rest ->
      seconds := float_of_string_opt v;
      go rest
    | "--trace" :: ("0" | "1" as v) :: rest ->
      trace := Some (v = "1");
      go rest
    | "--smoke" :: rest ->
      smoke := true;
      go rest
    | "--bless" :: rest ->
      bless := true;
      go rest
    | "--corrupt-pin" :: rest ->
      corrupt_pin := true;
      go rest
    | "--setup-only" :: dir :: rest ->
      setup_only := Some dir;
      go rest
    | [] -> ()
    | arg :: _ ->
      prerr_endline ("unexpected argument " ^ arg);
      usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some _, Some seed, _, _ when !bless && (seed <> 1 || !smoke) ->
    (* Pins hold the digests of the full seed-1 batch and nothing else. *)
    prerr_endline "--bless needs --seed 1 and no --smoke";
    exit 2
  | Some w, Some seed, Some seconds, Some trace
    when List.mem w Plan.workloads && seconds > 0.0 ->
    {
      workload = w;
      seed;
      seconds;
      trace;
      smoke = !smoke;
      bless = !bless;
      corrupt_pin = !corrupt_pin;
      setup_only = !setup_only;
    }
  | _ -> usage ()

(* ---------------------------------------------------------------- *)
(* Files                                                               *)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let dir_bytes dir =
  Array.fold_left
    (fun acc f -> acc + (Unix.stat (Filename.concat dir f)).Unix.st_size)
    0
    (if Sys.file_exists dir then Sys.readdir dir else [||])

let read_file path =
  In_channel.with_open_bin path In_channel.input_all |> String.trim

let read_opt path = try Some (read_file path) with Sys_error _ -> None

(* /proc/self/status VmHWM, in MB. *)
let peak_rss_mb () =
  match read_opt "/proc/self/status" with
  | None -> nan
  | Some s ->
    List.fold_left
      (fun acc line ->
        match String.split_on_char ':' line with
        | [ "VmHWM"; v ] ->
          Scanf.sscanf (String.trim v) "%d kB" (fun kb -> float_of_int kb /. 1024.0)
        | _ -> acc)
      nan (String.split_on_char '\n' s)

let loadavg () =
  match read_opt "/proc/loadavg" with
  | Some s -> (
    match String.split_on_char ' ' s with
    | l1 :: _ -> Option.value (float_of_string_opt l1) ~default:nan
    | [] -> nan)
  | None -> nan

(* The commit of a git checkout, read without running git; "unknown" in
   an exported tree. *)
let commit () =
  match read_opt ".git/HEAD" with
  | None -> "unknown"
  | Some head when String.starts_with ~prefix:"ref: " head -> (
    let ref_name = String.sub head 5 (String.length head - 5) in
    match read_opt (Filename.concat ".git" ref_name) with
    | Some c -> c
    | None -> (
      match read_opt ".git/packed-refs" with
      | None -> "unknown"
      | Some packed ->
        List.fold_left
          (fun acc line ->
            match String.split_on_char ' ' line with
            | [ c; r ] when r = ref_name -> c
            | _ -> acc)
          "unknown"
          (String.split_on_char '\n' packed)))
  | Some c -> c

(* ---------------------------------------------------------------- *)
(* Output checks                                                       *)

let digest v =
  Digest.to_hex (Digest.string (Marshal.to_string v [ Marshal.No_sharing ]))

type fact = {
  digest : string;
  violated : string list;  (** Seed-independent invariants that fail. *)
  mbit : float;  (** Utilisation x capacity x horizon, Mbit. *)
  flows : float;  (** Flows driven to completion. *)
}

let failed_fact =
  { digest = "missing"; violated = [ "result not cached" ]; mbit = 0.0; flows = 0.0 }
let finite = Float.is_finite
let sum f l = List.fold_left (fun acc x -> acc +. f x) 0.0 l

(* Rates may touch their bound within rounding, never exceed it. *)
let at_most bound v = v <= bound *. (1.0 +. 1e-9)
let utilisation_ok u = u > 0.0 && at_most 1.0 u

let violations checks =
  List.filter_map (fun (holds, what) -> if holds then None else Some what) checks

let packet_fact (r : E.result) =
  let cap = (r.config.rate_bps :> float) in
  let goodput = sum (fun f -> f.E.throughput_bps) r.per_flow in
  (* Goodput is counted from ACKs, so each flow may carry up to one
     segment per window edge beyond what the link moved inside it. *)
  let window = (r.config.duration :> float) -. (r.config.warmup :> float) in
  let edge =
    float_of_int (List.length r.per_flow * 2 * Sim_engine.Units.mss * 8) /. window
  in
  let violated =
    violations
      [
        (List.for_all (fun f -> finite f.E.throughput_bps) r.per_flow, "finite goodput");
        ( List.for_all (fun c -> finite c.E.cp_fct && c.E.cp_fct > 0.0) r.completions,
          "finite positive FCTs" );
        (finite r.queuing_delay, "finite queuing delay");
        ( utilisation_ok r.utilization,
          Printf.sprintf "utilisation %g not in (0, 1]" r.utilization );
        ( at_most (cap +. edge) goodput,
          Printf.sprintf "goodput %g exceeds capacity %g" goodput cap );
        (r.workload_completed <= r.workload_arrived, "completions <= arrivals");
        (List.length r.completions = r.workload_completed, "one record per completion");
      ]
  in
  {
    digest = digest r;
    violated;
    mbit = r.utilization *. cap *. (r.config.duration :> float) /. 1e6;
    flows =
      float_of_int
        (match r.config.workload with
        | Some _ -> r.workload_completed
        | None -> List.length r.per_flow);
  }

let summary_violations (s : Runs.summary) =
  violations
    [
      ( finite s.per_flow_cubic_bps && finite s.per_flow_other_bps
        && finite s.queuing_delay,
        "finite summary" );
      (utilisation_ok s.utilization, "summary utilisation in (0, 1]");
    ]

let outcome_fact (s : Sim_backend.spec) (o : Sim_backend.outcome) =
  let cap = (s.rate_bps :> float) in
  let goodput = Array.fold_left ( +. ) 0.0 o.per_flow_bps in
  let violated =
    violations
      [
        (Array.for_all finite o.per_flow_bps, "finite goodput");
        (Array.length o.per_flow_bps = List.length s.flows, "one goodput per flow");
        (finite o.mean_queue_bytes && finite o.mean_queuing_delay, "finite queue");
        ( utilisation_ok o.utilization,
          Printf.sprintf "utilisation %g not in (0, 1]" o.utilization );
        ( at_most cap goodput,
          Printf.sprintf "goodput %g exceeds capacity %g" goodput cap );
      ]
  in
  {
    digest = digest o;
    violated;
    mbit = o.utilization *. cap *. (s.duration :> float) /. 1e6;
    flows = float_of_int (List.length s.flows);
  }

let specs_of groups = List.concat_map snd groups

(* ---------------------------------------------------------------- *)
(* Passes through the public entry points                              *)

let ctx (plan : Plan.t) dir =
  Experiments.Common.ctx ~jobs:plan.jobs ~cache_dir:dir Experiments.Common.Quick

(* One pass of the batch: [view] is what a warm replay must reproduce
   byte for byte; [facts] (computed outside the timed span) has one
   entry per operation. *)
type pass = { view : string array; facts : unit -> fact array }

let pass (plan : Plan.t) dir =
  let ctx = ctx plan dir in
  match plan.kind with
  | Plan.Long_flows mixes ->
    let summaries = Runs.mix_many ctx mixes in
    {
      view = Array.of_list (List.map digest summaries);
      facts =
        (fun () ->
          (* The config results [mix_many] cached, read back by key: a
             miss means the plan and [Runs] disagree on the config. *)
          let cache = Exec.Cache.create dir in
          Array.of_list
            (List.map2
               (fun c s ->
                 match (Exec.Cache.find cache ~key:(E.digest c) : E.result option) with
                 | Some r ->
                   let f = packet_fact r in
                   { f with violated = f.violated @ summary_violations s }
                 | None -> failed_fact)
               plan.configs summaries));
    }
  | Plan.Churn ->
    let results = Runs.eval ctx plan.configs in
    {
      view = Array.of_list (List.map digest results);
      facts = (fun () -> Array.of_list (List.map packet_fact results));
    }
  | Plan.Analytic groups ->
    let outcomes =
      List.concat_map (fun (b, specs) -> Runs.run_specs ctx b specs) groups
    in
    {
      view = Array.of_list (List.map digest outcomes);
      facts =
        (fun () ->
          Array.of_list (List.map2 outcome_fact (specs_of groups) outcomes));
    }

(* The traced cold pass. Packet workloads run every config through
   [Experiment.setup]/[finish] with a sliced [Sim.run] under [Exec.map],
   keeping [Runs.eval]'s cache discipline (one lookup before, one store
   after); analytic workloads go through [Runs.run_specs] with delegating
   backends. Returns the facts and a cache probe over the same values. *)
let traced_pass (plan : Plan.t) dir =
  match plan.kind with
  | Plan.Long_flows _ | Plan.Churn ->
    let cache = Exec.Cache.create dir in
    List.iter
      (fun key -> ignore (Exec.Cache.find cache ~key : E.result option))
      plan.keys;
    Probe.install_cca_wrappers ();
    let results =
      Fun.protect ~finally:Probe.restore_ccas (fun () ->
          Exec.map_list ~jobs:plan.jobs Probe.traced_run plan.configs)
    in
    List.iter2 (fun key r -> Exec.Cache.store cache ~key r) plan.keys results;
    ( (fun () -> Array.of_list (List.map packet_fact results)),
      fun probe_dir -> Probe.cache_probe probe_dir (List.combine plan.keys results) )
  | Plan.Analytic groups ->
    let ctx = ctx plan dir in
    let outcomes =
      List.concat_map
        (fun (b, specs) -> Runs.run_specs ctx (Probe.delegate b) specs)
        groups
    in
    ( (fun () ->
        Array.of_list (List.map2 outcome_fact (specs_of groups) outcomes)),
      fun probe_dir ->
        Probe.cache_probe probe_dir (List.combine plan.keys outcomes) )

(* ---------------------------------------------------------------- *)
(* Statistics                                                          *)

(* Python's statistics.quantiles(values, n=4), exclusive method. *)
let quartiles values =
  let data = Array.of_list values in
  Array.sort compare data;
  let ld = Array.length data in
  match ld with
  | 0 -> (nan, nan, nan)
  | 1 -> (data.(0), data.(0), data.(0))
  | _ ->
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((data.(j - 1) *. float_of_int (4 - delta)) +. (data.(j) *. float_of_int delta))
      /. 4.0
    in
    (q 1, q 2, q 3)

let median values =
  let _, m, _ = quartiles values in
  m

(* ---------------------------------------------------------------- *)
(* Rounds                                                              *)

type state = {
  plan : Plan.t;
  work : string;  (** Per-process working directory in the tree. *)
  mutable round : int;
  mutable attempted : int;
  mutable failed : int;
  mutable reference : (string array * string array) option;
      (** Digests and warm view of the first untraced round. *)
  expected : string option array;  (** Pinned digests, when applicable. *)
  samples : (string, float list) Hashtbl.t;
}

let add st name v =
  let prev = Option.value (Hashtbl.find_opt st.samples name) ~default:[] in
  Hashtbl.replace st.samples name (v :: prev)

let fresh_dir st tag =
  st.round <- st.round + 1;
  let d = Filename.concat st.work (Printf.sprintf "%s-%d" tag st.round) in
  rm_rf d;
  d

(* Mark operations whose checks fail and count the round. *)
let account st (facts : fact array) (extra_bad : bool array) =
  let bad =
    Array.mapi
      (fun i f ->
        let failures =
          List.filter_map
            (fun (failed, what) -> if failed then Some what else None)
            [
              (extra_bad.(i), "replay differs");
              (f.violated <> [], String.concat "; " f.violated);
              ( (match st.expected.(i) with Some d -> d <> f.digest | None -> false),
                "pinned digest differs" );
              ( (match st.reference with
                | Some (digests, _) -> digests.(i) <> f.digest
                | None -> false),
                "digest differs from the first round" );
            ]
        in
        if failures <> [] then
          Printf.eprintf "operation %d failed: %s\n%!" i (String.concat ", " failures);
        failures <> [])
      facts
  in
  st.attempted <- st.attempted + Array.length facts;
  st.failed <-
    st.failed + Array.fold_left (fun n b -> if b then n + 1 else n) 0 bad

let safely st f =
  try f ()
  with e ->
    prerr_endline ("operation failed: " ^ Printexc.to_string e);
    st.attempted <- st.attempted + st.plan.ops;
    st.failed <- st.failed + st.plan.ops

let minor_words () = (Gc.quick_stat ()).Gc.minor_words

(* [Plan.warm_replays] warm replays of the cache the cold pass filled,
   median per replay; every replay must match [view] byte for byte. *)
let warm st dir view bad =
  let times =
    List.init st.plan.warm_replays (fun _ ->
        let p, dt = Clock.time (fun () -> pass st.plan dir) in
        Array.iteri (fun i v -> if v <> view.(i) then bad.(i) <- true) p.view;
        dt)
  in
  median times

(* The first untraced round is a warm-up: its outputs are checked and
   become the reference, but its timings are not kept. *)
let untraced_round st =
  safely st (fun () ->
      let warm_up = st.reference = None in
      Gc.compact ();
      let dir = fresh_dir st "cold" in
      let w0 = minor_words () in
      let p, wall = Clock.time (fun () -> pass st.plan dir) in
      let alloc = minor_words () -. w0 in
      let facts = p.facts () in
      let bad = Array.make st.plan.ops false in
      if Array.length facts <> st.plan.ops then failwith "result count";
      (match st.reference with
      | Some (_, view) ->
        Array.iteri (fun i v -> if v <> view.(i) then bad.(i) <- true) p.view
      | None -> ());
      let warm_s = warm st dir p.view bad in
      account st facts bad;
      if st.reference = None then
        st.reference <- Some (Array.map (fun f -> f.digest) facts, p.view);
      rm_rf dir;
      let ops = float_of_int st.plan.ops in
      (* The heap only grows across rounds, so peak memory is read once,
         after one cold and warm pass of the batch. *)
      if warm_up then add st "peak_rss_mb" (peak_rss_mb ());
      let add name v = if not warm_up then add st name v in
      add "wall_s" wall;
      add "sim_mbit_per_s" (sum (fun f -> f.mbit) (Array.to_list facts) /. wall);
      add "flows_per_s" (sum (fun f -> f.flows) (Array.to_list facts) /. wall);
      add "specs_per_s" (ops /. wall);
      add "warm_specs_per_s" (ops /. warm_s);
      add "alloc_mwords" (alloc /. 1e6))

let traced_round st =
  safely st (fun () ->
      Gc.compact ();
      let plan = st.plan in
      let dir = fresh_dir st "traced" in
      Probe.reset_cca ();
      Probe.reset_packet ();
      ignore (Probe.take_calls ());
      let c0 = Exec.counters () and w0 = minor_words () in
      let g0 = (Gc.quick_stat ()).Gc.major_collections in
      let (facts, probe), wall = Clock.time (fun () -> traced_pass plan dir) in
      let alloc = minor_words () -. w0 in
      let majors = (Gc.quick_stat ()).Gc.major_collections - g0 in
      let c1 = Exec.counters () in
      let calls = Probe.take_calls () in
      let facts = facts () in
      let bad = Array.make plan.ops false in
      if Array.length facts <> plan.ops then failwith "result count";
      (* Warm replay of what the traced pass cached, against the untraced
         view. *)
      let p = pass plan dir in
      let c2 = Exec.counters () in
      (match st.reference with
      | Some (_, view) ->
        Array.iteri (fun i v -> if v <> view.(i) then bad.(i) <- true) p.view
      | None -> ());
      (* Exec domains: the analytic pass again at one job per core, into
         its own cache. Its results must match the one-job pass byte for
         byte, and its backend spans give the [exec.*] metrics. *)
      let exec_jobs, par_calls =
        match plan.kind with
        | Plan.Analytic _ ->
          let jobs = Exec.domain_count () in
          let par_dir = fresh_dir st "parallel" in
          let par_facts, _ = traced_pass { plan with jobs } par_dir in
          rm_rf par_dir;
          Array.iteri
            (fun i f -> if f.digest <> facts.(i).digest then bad.(i) <- true)
            (par_facts ());
          (jobs, Probe.take_calls ())
        | _ -> (plan.jobs, [])
      in
      account st facts bad;
      let store_s, find_s = probe (Filename.concat st.work "probe") in
      rm_rf (Filename.concat st.work "probe");
      let cache_bytes = dir_bytes dir in
      rm_rf dir;
      let span_ns = Lazy.force Clock.empty_span_ns in
      let ops = float_of_int plan.ops in
      let fi = float_of_int in
      let per a b = if b > 0.0 then a /. b else 0.0 in
      let set = add st in
      set "trace.wall_s" wall;
      (* sim_engine / cca *)
      let pk = Probe.packet and cc = Probe.cca in
      let summaries = pk.summaries in
      let total f = fi (List.fold_left (fun acc s -> acc + f s) 0 summaries) in
      let sends = total (fun s -> s.Sim_engine.Trace.Metrics.sends) in
      let ack_calls = Array.fold_left ( + ) 0 cc.ack_calls in
      let cca_ns =
        fi (Array.fold_left ( + ) 0 cc.ack_ns + cc.send_ns)
        -. (span_ns *. fi (ack_calls + cc.send_calls))
      in
      let run_ns = pk.run_s *. 1e9 in
      set "engine.run_s" pk.run_s;
      set "engine.ns_per_pkt" (per run_ns sends);
      set "engine.pending_max" (fi pk.pending_max);
      set "engine.unattributed_frac"
        (if run_ns > 0.0 then 1.0 -. (cca_ns /. run_ns) else 0.0);
      Array.iteri
        (fun i name ->
          let calls = fi cc.ack_calls.(i) in
          set ("cca.on_ack.calls." ^ name) calls;
          set ("cca.on_ack.ns." ^ name)
            (if calls > 0.0 then (fi cc.ack_ns.(i) /. calls) -. span_ns else 0.0))
        Probe.cca_names;
      set "cca.on_send.calls" (fi cc.send_calls);
      set "cca.query.calls" (fi cc.queries);
      set "cca.busy_frac" (per cca_ns run_ns);
      (* tcpflow / churn / netsim / workload *)
      let retransmits = total (fun s -> s.retransmits) in
      set "tcpflow.setup_s" pk.setup_s;
      set "tcpflow.finish_s" pk.finish_s;
      set "tcpflow.sends" sends;
      set "tcpflow.acks" (total (fun s -> s.acks));
      set "tcpflow.retransmits" retransmits;
      set "tcpflow.rto_fires" (total (fun s -> s.rto_fires));
      set "tcpflow.goodput_frac" (if sends > 0.0 then 1.0 -. (retransmits /. sends) else 0.0);
      let starts = total (fun s -> s.flow_starts)
      and completes = total (fun s -> s.flow_completes) in
      set "churn.flow_starts" starts;
      set "churn.flow_completes" completes;
      set "churn.completed_frac" (per completes starts);
      let drops = total (fun s -> s.drops) in
      set "netsim.drops" drops;
      set "netsim.drop_frac" (per drops sends);
      let qdelay p =
        let vs =
          List.filter_map
            (fun s -> List.assoc_opt p s.Sim_engine.Trace.Metrics.queue_delay_quantiles)
            summaries
        in
        if vs = [] then 0.0 else median vs *. 1e3
      in
      set "netsim.qdelay_p50_ms" (qdelay 50.0);
      set "netsim.qdelay_p99_ms" (qdelay 99.0);
      set "workload.gen_s" plan.gen_s;
      set "workload.items" (fi plan.items);
      (* fluidsim / sim_backend / runs / exec *)
      List.iter
        (fun b ->
          let mine = List.filter (fun (c : Probe.call) -> c.backend = b) calls in
          let specs = fi (List.fold_left (fun acc (c : Probe.call) -> acc + c.specs) 0 mine) in
          let secs = sum (fun (c : Probe.call) -> c.t1 -. c.t0) mine in
          let words = sum (fun (c : Probe.call) -> c.words) mine in
          set (b ^ ".specs") specs;
          set (b ^ ".us_per_spec") (per (secs *. 1e6) specs);
          set (b ^ ".words_per_spec") (per words specs))
        [ "fluid"; "ode" ];
      let ncalls = fi (List.length calls) in
      set "backend.calls" ncalls;
      set "backend.specs_per_call"
        (per (fi (List.fold_left (fun acc (c : Probe.call) -> acc + c.specs) 0 calls)) ncalls);
      let job_spans, exec_span, child =
        match plan.kind with
        | Plan.Analytic _ ->
          let spans = List.map (fun (c : Probe.call) -> c.t1 -. c.t0) par_calls in
          (* Each backend's calls form one [Exec.map]; its span runs from
             its first call's start to its last call's end. *)
          let span b =
            match List.filter (fun (c : Probe.call) -> c.backend = b) par_calls with
            | [] -> 0.0
            | cs ->
              List.fold_left (fun m (c : Probe.call) -> Float.max m c.t1) neg_infinity cs
              -. List.fold_left (fun m (c : Probe.call) -> Float.min m c.t0) infinity cs
          in
          ( spans,
            span "fluid" +. span "ode",
            sum (fun (c : Probe.call) -> c.t1 -. c.t0) calls )
        | _ ->
          let busy = sum Fun.id pk.job_spans in
          (pk.job_spans, busy, busy)
      in
      let busy = sum Fun.id job_spans in
      set "runs.self_s" (wall -. child);
      set "exec.busy_s" busy;
      set "exec.idle_frac"
        (if exec_span > 0.0 then 1.0 -. (busy /. (fi exec_jobs *. exec_span)) else 0.0);
      set "exec.max_job_s" (List.fold_left Float.max 0.0 job_spans);
      (* Exec.Cache *)
      set "cache.hits" (fi (c2.cache_hits - c1.cache_hits));
      set "cache.misses" (fi (c1.cache_misses - c0.cache_misses));
      set "cache.find_us" ((find_s *. 1e6) -. (span_ns *. 1e-3));
      set "cache.store_us" ((store_s *. 1e6) -. (span_ns *. 1e-3));
      set "cache.bytes" (fi cache_bytes);
      (* gc *)
      set "gc.major_collections" (fi majors);
      set "gc.minor_mwords" (alloc /. 1e6);
      set "gc.minor_words_per_op" (alloc /. ops))

(* ---------------------------------------------------------------- *)
(* Metric catalogue and output                                        *)

let end_to_end =
  [
    ("setup_s", "s");
    ("wall_s", "s");
    ("sim_mbit_per_s", "Mbit/s");
    ("flows_per_s", "1/s");
    ("specs_per_s", "1/s");
    ("warm_specs_per_s", "1/s");
    ("peak_rss_mb", "MB");
    ("alloc_mwords", "Mwords");
    ("success_rate", "ratio");
  ]

let per_layer =
  List.concat
    [
      [
        ("engine.run_s", "s");
        ("engine.ns_per_pkt", "ns");
        ("engine.pending_max", "count");
        ("engine.unattributed_frac", "ratio");
      ];
      List.concat_map
        (fun n -> [ ("cca.on_ack.calls." ^ n, "count"); ("cca.on_ack.ns." ^ n, "ns") ])
        (Array.to_list Probe.cca_names);
      [
        ("cca.on_send.calls", "count");
        ("cca.query.calls", "count");
        ("cca.busy_frac", "ratio");
        ("tcpflow.setup_s", "s");
        ("tcpflow.finish_s", "s");
        ("tcpflow.sends", "count");
        ("tcpflow.acks", "count");
        ("tcpflow.retransmits", "count");
        ("tcpflow.rto_fires", "count");
        ("tcpflow.goodput_frac", "ratio");
        ("churn.flow_starts", "count");
        ("churn.flow_completes", "count");
        ("churn.completed_frac", "ratio");
        ("netsim.drops", "count");
        ("netsim.drop_frac", "ratio");
        ("netsim.qdelay_p50_ms", "ms");
        ("netsim.qdelay_p99_ms", "ms");
        ("workload.gen_s", "s");
        ("workload.items", "count");
        ("fluid.specs", "count");
        ("fluid.us_per_spec", "us");
        ("fluid.words_per_spec", "words");
        ("ode.specs", "count");
        ("ode.us_per_spec", "us");
        ("ode.words_per_spec", "words");
        ("backend.calls", "count");
        ("backend.specs_per_call", "count");
        ("runs.self_s", "s");
        ("exec.busy_s", "s");
        ("exec.idle_frac", "ratio");
        ("exec.max_job_s", "s");
        ("cache.hits", "count");
        ("cache.misses", "count");
        ("cache.find_us", "us");
        ("cache.store_us", "us");
        ("cache.bytes", "bytes");
        ("gc.major_collections", "count");
        ("gc.minor_mwords", "Mwords");
        ("gc.minor_words_per_op", "words");
        ("trace.overhead_frac", "ratio");
      ];
    ]

(* On a shared host the program's speed varies by up to half over seconds
   to minutes, and per-run medians of round times spread more than twice
   as wide between runs as best rounds did. Timings are therefore reported
   from the best of the run's fixed number of timed rounds: the lowest time
   or the highest rate. The round count does not depend on the program's
   speed, so neither does this estimator's bias. The report line keeps
   every metric's median, quartiles and sample count. Set-up, memory and
   allocation keep their medians. *)
let lowest = List.fold_left Float.min infinity
let highest = List.fold_left Float.max neg_infinity

let best_round =
  [
    ("wall_s", lowest);
    ("sim_mbit_per_s", highest);
    ("flows_per_s", highest);
    ("specs_per_s", highest);
    ("warm_specs_per_s", highest);
  ]

let json_float v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"
let json_string s = Printf.sprintf "%S" s

let json_obj fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> json_string k ^ ": " ^ v) fields) ^ "}"

let pins_path workload = Filename.concat "e2ebench/pinned" (workload ^ ".digests")

(* The pinned digest of every operation, for the full seed-1 batch only.
   Pins that are missing or of the wrong count fail every operation rather
   than switching the check off. *)
let expected_digests ~args (plan : Plan.t) =
  let pinned = args.seed = 1 && (not args.smoke) && not args.bless in
  let expected =
    if not pinned then Array.make plan.ops None
    else
      match Option.map (String.split_on_char '\n') (read_opt (pins_path args.workload)) with
      | Some l when List.length l = plan.ops -> Array.of_list (List.map Option.some l)
      | _ ->
        prerr_endline
          ("no pinned digest per operation in " ^ pins_path args.workload
         ^ ": every operation fails");
        Array.make plan.ops (Some "no pinned digest")
  in
  if args.corrupt_pin then expected.(0) <- Some (String.make 32 '0');
  expected

(* ---------------------------------------------------------------- *)
(* Set-up                                                              *)

(* Plan the batch from the seed (including churn's schedules), address
   every operation and create a fresh cache directory [dir]. *)
let setup_once ~args dir =
  let plan = Plan.make ~smoke:args.smoke ~seed:args.seed args.workload in
  ignore (Exec.Cache.create dir);
  plan

let setups_per_round = 2

(* One set-up as a user meets it: this executable started afresh with
   [--setup-only DIR], which sets up and prints "ready". It is timed from
   before the spawn to that line, so it covers process start, library
   initialisation, planning and cache-directory creation. Set-ups taken
   between rounds sample the host's speed where the rounds do. *)
let spawn_setup st ~args =
  let dir = fresh_dir st "setup" in
  let exe = Sys.executable_name in
  let argv =
    Array.of_list
      ([ exe; "--workload"; args.workload; "--seed"; string_of_int args.seed;
         "--seconds"; "1"; "--trace"; "0"; "--setup-only"; dir ]
      @ if args.smoke then [ "--smoke" ] else [])
  in
  let t0 = Clock.now_s () in
  let ic = Unix.open_process_args_in exe argv in
  let line = In_channel.input_line ic in
  let dt = Clock.now_s () -. t0 in
  let status = Unix.close_process_in ic in
  rm_rf dir;
  match (line, status) with
  | Some "ready", Unix.WEXITED 0 -> add st "setup_s" dt
  | _ -> failwith "set-up process failed"

(* ---------------------------------------------------------------- *)

let run args =
  let load_before = loadavg () in
  let work =
    Filename.concat ".e2ebench-work" (string_of_int (Unix.getpid ()))
  in
  let started = Clock.now_s () in
  Fun.protect
    ~finally:(fun () ->
      rm_rf work;
      try Sys.rmdir ".e2ebench-work" with Sys_error _ -> ())
    (fun () ->
      (* This process's own set-up, after its start-up costs, is reported
         apart as [first_setup_s]. *)
      let first_dir = Filename.concat work "setup-first" in
      let plan, first_setup = Clock.time (fun () -> setup_once ~args first_dir) in
      rm_rf first_dir;
      ignore (Lazy.force Clock.empty_span_ns);
      let expected = expected_digests ~args plan in
      let st =
        {
          plan;
          work;
          round = 0;
          attempted = 0;
          failed = 0;
          reference = None;
          expected;
          samples = Hashtbl.create 64;
        }
      in
      (* A fixed number of timed rounds, after the untraced warm-up round.
         With tracing, a quarter as many traced rounds (each several
         times slower) alternate with as many untraced ones. A run stops early only once it has passed
         four times [--seconds], so that a far slower program still ends
         in time. *)
      let rounds = max 2 (Float.to_int (Float.round (args.seconds /. plan.round_s))) in
      let want_traced = if args.trace then max 1 (rounds / 4) else 0 in
      let want_untraced = 1 + if args.trace then want_traced else rounds in
      let cutoff = started +. (4.0 *. args.seconds) in
      let untraced = ref 0 and traced = ref 0 in
      let rec loop () =
        let enough = !untraced >= want_untraced && !traced >= want_traced in
        let least = !untraced >= 2 && !traced >= min 1 want_traced in
        if not (enough || (least && Clock.now_s () > cutoff)) then begin
          Gc.compact ();
          for _ = 1 to setups_per_round do
            spawn_setup st ~args
          done;
          if !traced < want_traced && !traced < !untraced then begin
            traced_round st;
            incr traced
          end
          else begin
            untraced_round st;
            incr untraced
          end;
          loop ()
        end
      in
      loop ();
      if args.bless then begin
        match st.reference with
        | Some (digests, _) ->
          Out_channel.with_open_bin (pins_path args.workload) (fun oc ->
              Array.iter (fun d -> output_string oc (d ^ "\n")) digests)
        | None -> ()
      end;
      add st "success_rate"
        (1.0 -. (float_of_int st.failed /. float_of_int (max 1 st.attempted)));
      let samples name = Option.value (Hashtbl.find_opt st.samples name) ~default:[] in
      let stats name = quartiles (samples name) in
      let med name =
        let _, m, _ = stats name in
        m
      in
      if args.trace then begin
        let untraced_wall = med "wall_s" in
        add st "trace.overhead_frac"
          ((med "trace.wall_s" -. untraced_wall) /. untraced_wall)
      end;
      let catalogue = if args.trace then per_layer else end_to_end in
      let value name =
        match List.assoc_opt name best_round with
        | Some pick when samples name <> [] -> pick (samples name)
        | _ -> med name
      in
      let metric_json (name, unit) =
        (name, json_obj [ ("value", json_float (value name)); ("unit", json_string unit) ])
      in
      let report_json (name, unit) =
        let q1, m, q3 = stats name in
        let n = List.length (samples name) in
        ( name,
          json_obj
            [
              ("value", json_float (value name));
              ("median", json_float m);
              ("q1", json_float q1);
              ("q3", json_float q3);
              ("n", string_of_int n);
              ("unit", json_string unit);
            ] )
      in
      let correct = st.failed = 0 && st.attempted > 0 in
      print_endline
        (json_obj
           [
             ( "report",
               json_obj
                 [
                   ("workload", json_string args.workload);
                   ("seed", string_of_int args.seed);
                   ("trace", string_of_bool args.trace);
                   ("smoke", string_of_bool args.smoke);
                   ("seconds", json_float args.seconds);
                   ("commit", json_string (commit ()));
                   ("nproc", string_of_int (Exec.domain_count ()));
                   ("ocaml", json_string Sys.ocaml_version);
                   ("jobs", string_of_int plan.jobs);
                   ("ops", string_of_int plan.ops);
                   ("untraced_rounds", string_of_int !untraced);
                   ("traced_rounds", string_of_int !traced);
                   ("pins", json_string
                      (if args.corrupt_pin then "corrupted"
                       else if Array.exists Option.is_some expected then "checked"
                       else "none"));
                   ("first_setup_s", json_float first_setup);
                   ("run_s", json_float (Clock.now_s () -. started));
                   ("loadavg_before", json_float load_before);
                   ("loadavg_after", json_float (loadavg ()));
                   ("metrics", json_obj (List.map report_json (end_to_end @ per_layer)
                                         |> List.filter (fun (n, _) -> Hashtbl.mem st.samples n)));
                 ] );
           ]);
      print_endline
        (json_obj
           [
             ("correct", string_of_bool correct);
             ("attempted", string_of_int st.attempted);
             ("failed", string_of_int st.failed);
             ("metrics", json_obj (List.map metric_json catalogue));
           ]))

let () =
  let args = parse_args () in
  match args.setup_only with
  | Some dir ->
    ignore (setup_once ~args dir : Plan.t);
    print_endline "ready"
  | None -> run args
