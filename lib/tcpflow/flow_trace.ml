module Tr = Sim_engine.Trace

type sample = {
  time : float;
  cwnd_bytes : float;
  inflight_bytes : int;
  pacing_rate : float option;
  delivered_bytes : float;
  cc_state : string;
}

type t = {
  sim : Sim_engine.Sim.t;
  sender : Sender.t;
  period : float;
  trace : Tr.t;
  mutable samples : sample list;  (* newest first *)
  cwnd : Sim_engine.Timeseries.t;
  mutable running : bool;
  mutable tick_cb : unit -> unit;
      (* Allocated once; rescheduling reuses it instead of closing over [t]
         afresh every period. *)
}

let cc_sample sender =
  let cc = Sender.cc sender in
  Tr.Cc_sample
    {
      cwnd_bytes = cc.Cca.Cc_types.cwnd_bytes ();
      inflight_bytes = Sender.inflight_bytes sender;
      pacing_rate =
        (* The CCA API is nan-sentinel (hot path); the trace schema keeps
           the option. *)
        (let r = cc.Cca.Cc_types.pacing_rate () in
         if Float.is_nan r then None else Some r);
      delivered_bytes = Sender.delivered_bytes sender;
      cc_state = cc.Cca.Cc_types.state ();
    }

(* The tick only *emits* a [Cc_sample] event; the tracer's own sample list
   and cwnd series fill in through its hub subscription, so the event
   stream is the single data path and any other sink on the hub (JSONL
   writer, metrics rollup) sees exactly what the tracer records. *)
let sample t =
  Tr.emit t.trace ~time:(Sim_engine.Sim.now t.sim) ~flow:(Sender.flow t.sender)
    (cc_sample t.sender)

let tick t =
  if t.running then begin
    sample t;
    ignore (Sim_engine.Sim.schedule t.sim ~delay:t.period t.tick_cb)
  end

let attach ?trace ~sim ~sender ~period () =
  if period <= 0.0 then invalid_arg "Flow_trace.attach: period";
  let hub = match trace with Some hub -> hub | None -> Tr.create () in
  let t =
    {
      sim;
      sender;
      period;
      trace = hub;
      samples = [];
      cwnd = Sim_engine.Timeseries.create ();
      running = true;
      tick_cb = ignore;
    }
  in
  t.tick_cb <- (fun () -> tick t);
  let flow = Sender.flow sender in
  Tr.subscribe hub (fun (r : Tr.record) ->
      if r.flow = flow then
        match r.event with
        | Tr.Cc_sample
            { cwnd_bytes; inflight_bytes; pacing_rate; delivered_bytes;
              cc_state } ->
          let s =
            { time = r.time; cwnd_bytes; inflight_bytes; pacing_rate;
              delivered_bytes; cc_state }
          in
          t.samples <- s :: t.samples;
          Sim_engine.Timeseries.record t.cwnd ~time:r.time s.cwnd_bytes
        | _ -> ());
  tick t;
  t

let stop t = t.running <- false
let samples t = List.rev t.samples
let cwnd_series t = t.cwnd
let trace t = t.trace

let throughput_between t ~from_ ~until =
  if until <= from_ then nan
  else begin
    (* Samples are newest first: the first sample at/before an edge is the
       last one taken in that window. One walk finds the [until] edge and
       then continues — over the same suffix — to the [from_] edge, so
       repeated queries stay linear in the sample count. *)
    let rec last_at_or_before edge = function
      | [] -> None
      | s :: older ->
        if s.time <= edge then Some (s, older) else last_at_or_before edge older
    in
    match last_at_or_before until t.samples with
    | None -> nan
    | Some (b, older) -> (
      match last_at_or_before from_ (b :: older) with
      | Some (a, _) when b.time > a.time ->
        (b.delivered_bytes -. a.delivered_bytes)
        /. (b.time -. a.time) *. Sim_engine.Units.bits_per_byte
      | _ -> nan)
  end

let to_csv t =
  let line s =
    Printf.sprintf "%.6f,%.0f,%d,%s,%.0f,%s" s.time s.cwnd_bytes
      s.inflight_bytes
      (match s.pacing_rate with
      | Some r -> Printf.sprintf "%.0f" r
      | None -> "")
      s.delivered_bytes s.cc_state
  in
  String.concat "\n"
    ("time,cwnd_bytes,inflight_bytes,pacing_Bps,delivered_bytes,state"
    :: List.map line (samples t))
  ^ "\n"

let state_occupancy t =
  let total = List.length t.samples in
  if total = 0 then []
  else
    List.fold_left
      (fun counts s ->
        let n = Option.value ~default:0 (List.assoc_opt s.cc_state counts) in
        (s.cc_state, n + 1) :: List.remove_assoc s.cc_state counts)
      [] t.samples
    |> List.map (fun (state, n) ->
           (state, float_of_int n /. float_of_int total))
    |> List.sort (fun (sa, a) (sb, b) ->
           match compare b a with 0 -> compare sa sb | c -> c)
