module E = Tcpflow.Experiment

type summary = {
  per_flow_cubic_bps : float;
  per_flow_other_bps : float;
  aggregate_other_bps : float;
  queuing_delay : float;
  utilization : float;
}

let config ?duration ?warmup ?(aqm = E.Tail_drop) ~mode ~mbps ~rtt_ms
    ~buffer_bdp ~flows ~seed () =
  let rate_bps = Sim_engine.Units.mbps mbps in
  let rtt = Sim_engine.Units.ms rtt_ms in
  E.config ~aqm
    ~warmup:(Option.value warmup ~default:(Common.warmup mode))
    ~seed ~rate_bps
    ~buffer_bytes:(E.buffer_bytes_of_bdp ~rate_bps ~rtt ~bdp:buffer_bdp)
    ~duration:(Option.value duration ~default:(Common.duration mode))
    flows

(* Run one config with a trace hub feeding a JSONL file and a metrics
   rollup, both named by the config digest. Each file is written wholly
   inside the worker domain that simulates its config, and the writers are
   byte-deterministic, so the trace directory's contents do not depend on
   [jobs] or scheduling. *)
let run_traced ~dir key config =
  let hub = Sim_engine.Trace.create () in
  let metrics =
    Sim_engine.Trace.Metrics.create ~rate_bps:(config.E.rate_bps :> float) ()
  in
  Sim_engine.Trace.subscribe hub (Sim_engine.Trace.Metrics.observe metrics);
  let oc = open_out (Filename.concat dir (key ^ ".jsonl")) in
  Sim_engine.Trace.subscribe hub (Sim_engine.Trace.jsonl_sink oc);
  let result =
    Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
        E.run ~trace:hub config)
  in
  let mc = open_out (Filename.concat dir (key ^ ".metrics")) in
  output_string mc
    (Sim_engine.Trace.Metrics.summary_line
       (Sim_engine.Trace.Metrics.summary metrics));
  output_char mc '\n';
  close_out mc;
  result

(* Where [evaluate] looks results up before running them, and where it
   puts what it ran. *)
type 'v store = { find : string -> 'v option; add : string -> 'v -> unit }

let no_store = { find = (fun _ -> None); add = (fun _ _ -> ()) }

(* The caller fixes ['v]: [Exec.Cache.find] reads at whatever type it is
   asked for, so each key space must be read at the type it was stored
   at. *)
let disk (type v) cache : v store =
  {
    find = (fun key -> Sim_engine.Exec.Cache.find cache ~key);
    add = (fun key v -> Sim_engine.Exec.Cache.store cache ~key v);
  }

(* The choke point every simulation in the experiment suite goes through:
   key each item, skip repeated keys, look each distinct key up in
   [store], run the misses on the ctx's worker pool (one job per miss),
   store what was computed, and return results in input order. With
   [no_store], duplicates still run once. *)
let evaluate (ctx : Common.ctx) ~key ~store run items =
  let keyed = List.map (fun x -> (key x, x)) items in
  (* key -> its result; [None] while a miss is pending. *)
  let known = Hashtbl.create 16 in
  let misses =
    List.filter
      (fun (k, _) ->
        if Hashtbl.mem known k then false
        else begin
          let hit = store.find k in
          Hashtbl.add known k hit;
          Option.is_none hit
        end)
      keyed
  in
  let computed =
    Sim_engine.Exec.map_list ~jobs:ctx.jobs (fun (k, x) -> run k x) misses
  in
  List.iter2
    (fun (k, _) v ->
      store.add k v;
      Hashtbl.replace known k (Some v))
    misses computed;
  List.map (fun (k, _) -> Option.get (Hashtbl.find known k)) keyed

(* Tracing bypasses the cache — a cache hit skips the simulation and
   would produce no trace — but still dedupes repeated configs, so one
   file pair per distinct digest. *)
let eval (ctx : Common.ctx) configs =
  match ctx.trace_dir with
  | Some dir ->
    Sim_engine.Exec.mkdir_p dir;
    evaluate ctx ~key:E.digest ~store:no_store (run_traced ~dir) configs
  | None ->
    let store = Option.fold ~none:no_store ~some:disk ctx.cache in
    evaluate ctx ~key:E.digest ~store (fun _ c -> E.run c) configs

(* A capped memo: outcomes keyed by digest, stamped with a logical access
   tick. When full, the least-recently-used entry is evicted (an O(cap)
   scan — vanishingly cheap next to the simulation run an insertion just
   paid for) and counted via {!Sim_engine.Exec.note_memo_eviction}.
   Eviction order is deterministic: ticks are unique, so the minimum is
   unambiguous; and since a re-run of an evicted digest reproduces the
   same outcome, results never depend on the cap at all. *)
type memo = {
  table : (string, Sim_backend.outcome * int ref) Hashtbl.t;
  cap : int;
  tick : int ref;
}

let memo ?(cap = 4096) () : memo =
  if cap < 1 then invalid_arg "Runs.memo: cap must be >= 1";
  { table = Hashtbl.create 64; cap; tick = ref 0 }

let memo_find memo key =
  match Hashtbl.find_opt memo.table key with
  | None -> None
  | Some (outcome, stamp) ->
    incr memo.tick;
    stamp := !(memo.tick);
    Some outcome

let memo_add memo key outcome =
  if Hashtbl.length memo.table >= memo.cap then begin
    let victim = ref None in
    (* Stamps are unique (one monotonic tick per touch), so the min-stamp
       victim is order-independent. *)
    Hashtbl.iter (* simlint: allow R1 *)
      (fun k (_, stamp) ->
        match !victim with
        | Some (_, best) when best <= !stamp -> ()
        | _ -> victim := Some (k, !stamp))
      memo.table;
    match !victim with
    | Some (k, _) ->
      Hashtbl.remove memo.table k;
      Sim_engine.Exec.note_memo_eviction ()
    | None -> ()
  end;
  incr memo.tick;
  Hashtbl.replace memo.table key (outcome, ref !(memo.tick))

(* The memo in front of [store]: a memo miss falls through to [store], and
   whatever [store] holds or learns is remembered. *)
let memo_over memo store =
  let recall key =
    match memo_find memo key with
    | Some _ as hit -> hit
    | None -> (
      match store.find key with
      | Some outcome as hit ->
        memo_add memo key outcome;
        hit
      | None -> None)
  in
  let remember key outcome =
    store.add key outcome;
    memo_add memo key outcome
  in
  { find = recall; add = remember }

(* Analytic backends have no event stream, so [trace_dir] does not apply
   here. *)
let run_specs ?memo (ctx : Common.ctx) backend specs =
  let store = Option.fold ~none:no_store ~some:disk ctx.cache in
  let store =
    match memo with Some m -> memo_over m store | None -> store
  in
  evaluate ctx ~key:(Sim_backend.digest backend) ~store
    (fun _ s -> Sim_backend.run_exn backend s)
    specs

type mix_spec = {
  spec_duration : Sim_engine.Units.seconds option;
  spec_warmup : Sim_engine.Units.seconds option;
  spec_aqm : E.aqm;
  spec_mbps : float;
  spec_rtt_ms : float;
  spec_buffer_bdp : float;
  spec_n_cubic : int;
  spec_other : string;
  spec_n_other : int;
  spec_base_seed : int;
}

let spec ?duration ?warmup ?(aqm = E.Tail_drop) ?(base_seed = 1) ~mbps ~rtt_ms
    ~buffer_bdp ~n_cubic ~other ~n_other () =
  if n_cubic + n_other = 0 then invalid_arg "Runs.spec: no flows";
  {
    spec_duration = duration;
    spec_warmup = warmup;
    spec_aqm = aqm;
    spec_mbps = mbps;
    spec_rtt_ms = rtt_ms;
    spec_buffer_bdp = buffer_bdp;
    spec_n_cubic = n_cubic;
    spec_other = other;
    spec_n_other = n_other;
    spec_base_seed = base_seed;
  }

(* One config per trial seed: mode's trial count, seeds spaced so distinct
   trials never collide across base seeds in practice. *)
let plan ~mode s =
  let rtt = Sim_engine.Units.ms s.spec_rtt_ms in
  let flows =
    List.init s.spec_n_cubic (fun _ -> E.flow_config ~base_rtt:rtt "cubic")
    @ List.init s.spec_n_other (fun _ ->
          E.flow_config ~base_rtt:rtt s.spec_other)
  in
  List.init (Common.trials mode) (fun trial ->
      config ?duration:s.spec_duration ?warmup:s.spec_warmup ~aqm:s.spec_aqm
        ~mode ~mbps:s.spec_mbps ~rtt_ms:s.spec_rtt_ms
        ~buffer_bdp:s.spec_buffer_bdp ~flows
        ~seed:(s.spec_base_seed + (1000 * trial))
        ())

let summarize s results =
  let avg f = Common.mean (List.map f results) in
  {
    per_flow_cubic_bps =
      (if s.spec_n_cubic = 0 then nan
       else avg (fun r -> E.mean_throughput_of_cca r "cubic"));
    per_flow_other_bps =
      (if s.spec_n_other = 0 then nan
       else avg (fun r -> E.mean_throughput_of_cca r s.spec_other));
    aggregate_other_bps =
      avg (fun r -> E.aggregate_throughput_of_cca r s.spec_other);
    queuing_delay = avg (fun r -> r.E.queuing_delay);
    utilization = avg (fun r -> r.E.utilization);
  }

let mix_many (ctx : Common.ctx) specs =
  let plans = List.map (plan ~mode:ctx.mode) specs in
  let results = eval ctx (List.concat plans) in
  (* Hand each spec back its own slice, in order. *)
  let remaining = ref results in
  List.map2
    (fun s configs ->
      let rec take n xs =
        if n = 0 then ([], xs)
        else
          match xs with
          | [] -> invalid_arg "Runs.mix_many: result underflow"
          | x :: rest ->
            let taken, dropped = take (n - 1) rest in
            (x :: taken, dropped)
      in
      let mine, rest = take (List.length configs) !remaining in
      remaining := rest;
      summarize s mine)
    specs plans

let mix ?duration ?warmup ?aqm ~ctx ~mbps ~rtt_ms ~buffer_bdp ~n_cubic ~other
    ~n_other ?(base_seed = 1) () =
  match
    mix_many ctx
      [
        spec ?duration ?warmup ?aqm ~base_seed ~mbps ~rtt_ms ~buffer_bdp
          ~n_cubic ~other ~n_other ();
      ]
  with
  | [ summary ] -> summary
  | _ -> assert false
