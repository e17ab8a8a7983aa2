module Sim = Sim_engine.Sim
module Units = Sim_engine.Units

type flow_config = {
  cca : string;
  base_rtt : Units.seconds;
  start_time : Units.seconds;
}

let flow_config ?(start_time = Units.seconds 0.0) ?(base_rtt = Units.ms 40.0)
    cca =
  { cca; base_rtt; start_time }

type aqm = Tail_drop | Red_default

(* Pure data (like the rest of [config]) so the open-loop population
   participates in the Marshal digest. *)
type workload = {
  wl_arrival : Workload.Arrival.t;
  wl_sizes : Workload.Dist.t;
  wl_cca : string;
  wl_rtt : Units.seconds;
}

type config = {
  rate_bps : Units.rate_bps;
  buffer_bytes : int;
  flows : flow_config list;
  duration : Units.seconds;
  warmup : Units.seconds;
  seed : int;
  sample_period : Units.seconds;
  aqm : aqm;
  workload : workload option;
}

let buffer_bytes_of_bdp ~rate_bps ~rtt ~bdp =
  let bytes = Units.bytes_to_int (Units.scale bdp (Units.bdp_bytes ~rate_bps ~rtt)) in
  max bytes Units.mss

let config ?(aqm = Tail_drop) ?(warmup = Units.seconds 0.0)
    ?(sample_period = Units.ms 1.0) ?(seed = 1) ?workload ~rate_bps
    ~buffer_bytes ~duration flows =
  if flows = [] && Option.is_none workload then
    invalid_arg "Experiment.config: no flows";
  {
    rate_bps;
    buffer_bytes;
    flows;
    duration;
    warmup;
    seed;
    sample_period;
    aqm;
    workload;
  }

(* The key under which Exec.Cache stores a run's result. Marshalling the
   whole record means every field — including seed, aqm and the flow list —
   participates in the digest. [No_sharing] makes the bytes a function of
   the value alone: with sharing, two [=]-equal configs whose flows do or
   do not share one boxed float would get different keys. *)
let digest config =
  Digest.to_hex
    (* simlint: allow R2 *)
    (Digest.string (Marshal.to_string config [ Marshal.No_sharing ]))

let default_config =
  let rate_bps = Units.mbps 100.0 and rtt = Units.ms 40.0 in
  {
    rate_bps;
    buffer_bytes = buffer_bytes_of_bdp ~rate_bps ~rtt ~bdp:10.0;
    flows = [ flow_config "cubic"; flow_config "bbr" ];
    duration = Units.seconds 40.0;
    warmup = Units.seconds 10.0;
    seed = 1;
    sample_period = Units.ms 1.0;
    aqm = Tail_drop;
    workload = None;
  }

type flow_result = {
  flow_id : int;
  flow_cca : string;
  flow_rtt : float;
  throughput_bps : float;
  flow_lost_segments : int;
  flow_retransmitted : int;
  flow_min_rtt : float;
}

(* One completed open-loop transfer: schedule position, arrival instant,
   transfer size and flow-completion time. *)
type completion = {
  cp_item : int;
  cp_arrival : float;
  cp_size : int;
  cp_fct : float;
}

type result = {
  config : config;
  per_flow : flow_result list;
  queuing_delay : float;
  queue_mean_bytes : float;
  class_mean_bytes : (string * float) list;
  class_min_bytes : (string * float) list;
  class_max_bytes : (string * float) list;
  drops : int;
  utilization : float;
  workload_arrived : int;
  workload_completed : int;
  workload_delivered_bytes : float;
  completions : completion list;
}

let distinct_ccas flows =
  List.sort_uniq compare (List.map (fun f -> f.cca) flows)

type live = {
  live_config : config;
  sim : Sim.t;
  net : Netsim.Dumbbell.t;
  senders : Sender.t array;
  sampler : Netsim.Sampler.t;
  stop_sampling : unit -> unit;
  delivered_at_warmup : float array;
  classes : string list;
  churn : Churn.t option;
}

let setup ?trace config =
  if (config.warmup :> float) >= (config.duration :> float) then
    invalid_arg "Experiment.run: warmup must precede duration";
  let sim = Sim.create ~seed:config.seed () in
  (* The workload stream is split first, before the AQM policy and the
     per-sender streams, so a schedule is a function of (seed, workload
     parameters) alone — adding or reordering static flows cannot move an
     arrival. Configs without a workload split nothing here and keep their
     historical streams bit-for-bit. *)
  let workload_rng =
    match config.workload with
    | None -> None
    | Some _ -> Some (Sim_engine.Rng.split (Sim.rng sim))
  in
  let flows = Array.of_list config.flows in
  let specs =
    Array.to_list
      (Array.mapi
         (fun i f -> { Netsim.Dumbbell.flow = i; base_rtt = f.base_rtt })
         flows)
  in
  let policy =
    match config.aqm with
    | Tail_drop -> Netsim.Droptail_queue.Tail_drop
    | Red_default ->
      Netsim.Droptail_queue.red_defaults
        ~rng:(Sim_engine.Rng.split (Sim.rng sim))
        ~capacity_bytes:config.buffer_bytes
  in
  let net =
    Netsim.Dumbbell.create ~policy ?trace ~sim ~rate_bps:config.rate_bps
      ~buffer_bytes:config.buffer_bytes ~flows:specs ()
  in
  (* One class per distinct CCA. Churn flows (ids at and above the static
     population) are in no class: class series measure the long-lived flows
     only. *)
  let classes = distinct_ccas config.flows in
  let class_names = Array.of_list classes in
  let class_of_flow =
    Array.map
      (fun f -> Option.get (Array.find_index (String.equal f.cca) class_names))
      flows
  in
  let sampler =
    Netsim.Sampler.create ~sim ~queue:(Netsim.Dumbbell.queue net)
      ~period:(config.sample_period :> float) ~classes:class_names
      ~class_of_flow ()
  in
  let senders =
    Array.mapi
      (fun i f ->
        let rng = Sim_engine.Rng.split (Sim.rng sim) in
        let cc = Cca.Registry.create f.cca ~mss:Units.mss ~rng in
        Sender.create ~net ~flow:i ~cc ~start_time:f.start_time ?trace ())
      flows
  in
  (* When traced, one periodic tick emits a Cc_sample for every static
     sender, in flow order, from now on. The hub's sinks see each sample and
     nothing here keeps a copy. Untraced runs skip this entirely. *)
  let stop_sampling =
    match trace with
    | None -> ignore
    | Some hub ->
      let sampling = ref true in
      let period = (config.sample_period :> float) in
      let rec tick () =
        if !sampling then begin
          let time = Sim.now sim in
          Array.iter
            (fun sender ->
              Sim_engine.Trace.emit hub ~time ~flow:(Sender.flow sender)
                (Flow_trace.cc_sample sender))
            senders;
          ignore (Sim.schedule sim ~delay:period tick)
        end
      in
      tick ();
      fun () -> sampling := false
  in
  (* Snapshot delivered bytes at the start of the measurement window. *)
  let delivered_at_warmup = Array.make (Array.length senders) 0.0 in
  ignore
    (Sim.schedule sim ~delay:(config.warmup :> float) (fun () ->
         Array.iteri
           (fun i sender ->
             delivered_at_warmup.(i) <- Sender.delivered_bytes sender)
           senders));
  let churn =
    match (config.workload, workload_rng) with
    | Some w, Some rng ->
      let schedule =
        Workload.Schedule.generate ~arrival:w.wl_arrival ~sizes:w.wl_sizes
          ~horizon_s:(config.duration :> float) ~rng ()
      in
      Some
        (Churn.create ?trace ~net ~base_flow:(Array.length flows)
           ~cca:w.wl_cca ~base_rtt:w.wl_rtt ~schedule ())
    | _ -> None
  in
  {
    live_config = config;
    sim;
    net;
    senders;
    sampler;
    stop_sampling;
    delivered_at_warmup;
    classes;
    churn;
  }

let live_sim l = l.sim
let live_net l = l.net
let live_senders l = l.senders
let live_churn l = l.churn

let finish l =
  let config = l.live_config in
  let sim = l.sim
  and net = l.net
  and senders = l.senders
  and sampler = l.sampler
  and delivered_at_warmup = l.delivered_at_warmup in
  let flows = Array.of_list config.flows in
  Sim.run ~until:(config.duration :> float) sim;
  Option.iter Churn.teardown l.churn;
  let window = (config.duration :> float) -. (config.warmup :> float) in
  let per_flow =
    Array.to_list
      (Array.mapi
         (fun i sender ->
           let delivered =
             Sender.delivered_bytes sender -. delivered_at_warmup.(i)
           in
           {
             flow_id = i;
             flow_cca = flows.(i).cca;
             flow_rtt = (flows.(i).base_rtt :> float);
             throughput_bps =
               (Units.bits_per_sec_of_bytes
                  ~bytes_per_sec:(delivered /. window)
                 :> float);
             flow_lost_segments = Sender.lost_segments sender;
             flow_retransmitted = Sender.retransmitted_segments sender;
             flow_min_rtt = Sender.min_rtt_observed sender;
           })
         senders)
  in
  let from_ = (config.warmup :> float)
  and until = (config.duration :> float) in
  let class_stat f =
    List.map
      (fun name -> (name, f (Netsim.Sampler.class_series sampler name)))
      l.classes
  in
  let result =
    {
      config;
      per_flow;
      queuing_delay =
        Netsim.Sampler.queuing_delay sampler
          ~rate_bps:(config.rate_bps :> float)
          ~from_ ~until;
      queue_mean_bytes =
        Sim_engine.Timeseries.time_weighted_mean
          (Netsim.Sampler.total sampler) ~from_ ~until;
      class_mean_bytes =
        class_stat (fun series ->
            Sim_engine.Timeseries.time_weighted_mean series ~from_ ~until);
      class_min_bytes =
        class_stat (fun series ->
            Sim_engine.Timeseries.min_value series ~from_ ());
      class_max_bytes =
        class_stat (fun series ->
            Sim_engine.Timeseries.max_value series ~from_ ());
      drops = Netsim.Droptail_queue.drops (Netsim.Dumbbell.queue net);
      utilization =
        (* busy_seconds accrues at transmission start, so a packet in
           flight at the end of the run can push the ratio marginally
           past 1. *)
        Float.min 1.0
          ((Netsim.Link.busy_seconds (Netsim.Dumbbell.link net) :> float)
          /. (config.duration :> float));
      workload_arrived =
        (match l.churn with None -> 0 | Some c -> Churn.arrived c);
      workload_completed =
        (match l.churn with None -> 0 | Some c -> Churn.completed c);
      workload_delivered_bytes =
        (match l.churn with None -> 0.0 | Some c -> Churn.delivered_bytes c);
      completions =
        (match l.churn with
        | None -> []
        | Some c ->
          let sched = Churn.schedule c in
          let fcts = Churn.fcts c in
          let acc = ref [] in
          for i = Array.length fcts - 1 downto 0 do
            if not (Float.is_nan fcts.(i)) then
              acc :=
                {
                  cp_item = i;
                  cp_arrival = sched.(i).Workload.Schedule.arrival_s;
                  cp_size = sched.(i).Workload.Schedule.size_bytes;
                  cp_fct = fcts.(i);
                }
                :: !acc
          done;
          !acc);
    }
  in
  Netsim.Sampler.stop sampler;
  l.stop_sampling ();
  result

let run ?trace config = finish (setup ?trace config)

let throughput_of_cca result name =
  List.filter_map
    (fun f -> if f.flow_cca = name then Some f.throughput_bps else None)
    result.per_flow

let mean_throughput_of_cca result name =
  match throughput_of_cca result name with
  | [] -> nan
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let aggregate_throughput_of_cca result name =
  List.fold_left ( +. ) 0.0 (throughput_of_cca result name)
