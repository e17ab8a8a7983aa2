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

(* The choke point every simulation in the experiment suite goes through:
   key each item, drop repeated keys, look every distinct key up in the
   ctx's store with one batch find, run the misses on the ctx's worker pool
   (one job and one counted simulation per miss), store what was computed,
   and return results in input order. [Exec.Cache.find_many] reads at
   whatever type it is asked for, so [run] fixes the type: each key space
   is read at the type it was stored at. *)
let evaluate (type v) (ctx : Common.ctx) ~key (run : string -> _ -> v) items
    : v list =
  let keyed = List.map (fun x -> (key x, x)) items in
  (* key -> its result; [None] while a miss is pending. *)
  let known = Hashtbl.create 16 in
  let distinct =
    List.filter
      (fun (k, _) ->
        if Hashtbl.mem known k then false
        else begin
          Hashtbl.add known k None;
          true
        end)
      keyed
  in
  let found : v option array =
    Sim_engine.Exec.Cache.find_many ctx.cache
      ~keys:(Array.of_list (List.map fst distinct))
  in
  let misses =
    List.filteri
      (fun i (k, _) ->
        match found.(i) with
        | Some _ as hit ->
          Hashtbl.replace known k hit;
          false
        | None -> true)
      distinct
  in
  let computed =
    Sim_engine.Exec.map_list ~jobs:ctx.jobs
      (fun (k, x) ->
        Sim_engine.Exec.note_simulation ();
        run k x)
      misses
  in
  List.iter2
    (fun (k, _) v ->
      Sim_engine.Exec.Cache.store ctx.cache ~key:k v;
      Hashtbl.replace known k (Some v))
    misses computed;
  List.map (fun (k, _) -> Option.get (Hashtbl.find known k)) keyed

(* A traced ctx's store is in memory ([Common.ctx]), so each distinct
   config is simulated, and traced, once per ctx. *)
let eval (ctx : Common.ctx) configs =
  match ctx.trace_dir with
  | Some dir ->
    Sim_engine.Exec.mkdir_p dir;
    evaluate ctx ~key:E.digest (run_traced ~dir) configs
  | None -> evaluate ctx ~key:E.digest (fun _ c -> E.run c) configs

(* Analytic backends have no event stream, so [trace_dir] does not apply
   here. *)
let run_specs (ctx : Common.ctx) backend specs =
  evaluate ctx ~key:(Sim_backend.digest backend)
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
