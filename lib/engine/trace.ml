type event =
  | Send of { seq : int; size : int; retransmit : bool }
  | Ack of {
      seq : int;
      rtt_sample : float;
      delivered_bytes : float;
      inflight_bytes : int;
    }
  | Seg_lost of { seq : int; via_timeout : bool }
  | Drop of { seq : int; size : int; early : bool; queue_bytes : int }
  | Rto_fire of { interval : float; backoff : int; lost_segments : int }
  | Recovery_enter of { via_timeout : bool; lost_bytes : int }
  | Recovery_exit
  | Cc_state_change of { from_state : string; to_state : string }
  | Cc_sample of {
      cwnd_bytes : float;
      inflight_bytes : int;
      pacing_rate : float option;
      delivered_bytes : float;
      cc_state : string;
    }
  | Queue_sample of { queue_bytes : int; queue_packets : int }
  | Flow_start of { size_limit_bytes : int }
      (* -1 when the flow is a long-lived backlogged sender *)
  | Flow_complete of { fct : float; size_bytes : int }

type record = { time : float; flow : int; event : event }

let link_scope = -1

type t = {
  ring : record option array;
  mutable next : int;  (* ring slot for the next record *)
  mutable emitted : int;
  mutable sinks : (record -> unit) list;  (* reversed subscription order *)
  mutable closers : (unit -> unit) list;  (* reversed subscription order *)
  mutable closed : bool;
}

let create ?(ring_capacity = 65536) () =
  if ring_capacity <= 0 then invalid_arg "Trace.create: ring_capacity";
  {
    ring = Array.make ring_capacity None;
    next = 0;
    emitted = 0;
    sinks = [];
    closers = [];
    closed = false;
  }

let subscribe t sink = t.sinks <- sink :: t.sinks

let subscribe_sink t ~on_record ~on_close =
  t.sinks <- on_record :: t.sinks;
  t.closers <- on_close :: t.closers

let close t =
  if not t.closed then begin
    t.closed <- true;
    (* Subscription order, like [emit]. *)
    let rec fire = function
      | [] -> ()
      | f :: rest ->
        fire rest;
        f ()
    in
    fire t.closers
  end

let closed t = t.closed

(* Subscription order: the sink list is kept reversed, so walk it
   backwards. Toplevel so [emit] builds no closure per record. *)
let rec fire_sinks sinks r =
  match sinks with
  | [] -> ()
  | sink :: rest ->
    fire_sinks rest r;
    sink r

let[@simlint.alloc_ok
     "the record is the product: senders only call emit when a trace is \
      attached"] emit t ~time ~flow event =
  let r = { time; flow; event } in
  t.ring.(t.next) <- Some r;
  t.next <- (t.next + 1) mod Array.length t.ring;
  t.emitted <- t.emitted + 1;
  fire_sinks t.sinks r

let emitted t = t.emitted
let overwritten t = max 0 (t.emitted - Array.length t.ring)

let records t =
  let n = Array.length t.ring in
  let collect from count =
    List.filter_map (fun i -> t.ring.((from + i) mod n)) (List.init count Fun.id)
  in
  if t.emitted < n then collect 0 t.next else collect t.next n

(* ---------- serialization ---------- *)

let event_name = function
  | Send _ -> "send"
  | Ack _ -> "ack"
  | Seg_lost _ -> "seg_lost"
  | Drop _ -> "drop"
  | Rto_fire _ -> "rto_fire"
  | Recovery_enter _ -> "recovery_enter"
  | Recovery_exit -> "recovery_exit"
  | Cc_state_change _ -> "cc_state_change"
  | Cc_sample _ -> "cc_sample"
  | Queue_sample _ -> "queue_sample"
  | Flow_start _ -> "flow_start"
  | Flow_complete _ -> "flow_complete"

(* Deterministic float rendering: enough digits to round-trip, no locale
   dependence. *)
let fl x = Printf.sprintf "%.9g" x

let json_string s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

(* The event's payload as an ordered field list. *)
let fields = function
  | Send { seq; size; retransmit } ->
    [ ("seq", string_of_int seq); ("size", string_of_int size);
      ("retx", string_of_bool retransmit) ]
  | Ack { seq; rtt_sample; delivered_bytes; inflight_bytes } ->
    [ ("seq", string_of_int seq); ("rtt", fl rtt_sample);
      ("delivered", fl delivered_bytes);
      ("inflight", string_of_int inflight_bytes) ]
  | Seg_lost { seq; via_timeout } ->
    [ ("seq", string_of_int seq); ("via_timeout", string_of_bool via_timeout) ]
  | Drop { seq; size; early; queue_bytes } ->
    [ ("seq", string_of_int seq); ("size", string_of_int size);
      ("early", string_of_bool early);
      ("queue_bytes", string_of_int queue_bytes) ]
  | Rto_fire { interval; backoff; lost_segments } ->
    [ ("interval", fl interval); ("backoff", string_of_int backoff);
      ("lost_segments", string_of_int lost_segments) ]
  | Recovery_enter { via_timeout; lost_bytes } ->
    [ ("via_timeout", string_of_bool via_timeout);
      ("lost_bytes", string_of_int lost_bytes) ]
  | Recovery_exit -> []
  | Cc_state_change { from_state; to_state } ->
    [ ("from", from_state); ("to", to_state) ]
  | Cc_sample { cwnd_bytes; inflight_bytes; pacing_rate; delivered_bytes;
                cc_state } ->
    [ ("cwnd", fl cwnd_bytes); ("inflight", string_of_int inflight_bytes);
      ("pacing", (match pacing_rate with None -> "" | Some r -> fl r));
      ("delivered", fl delivered_bytes); ("state", cc_state) ]
  | Queue_sample { queue_bytes; queue_packets } ->
    [ ("queue_bytes", string_of_int queue_bytes);
      ("queue_packets", string_of_int queue_packets) ]
  | Flow_start { size_limit_bytes } ->
    [ ("limit", string_of_int size_limit_bytes) ]
  | Flow_complete { fct; size_bytes } ->
    [ ("fct", fl fct); ("size", string_of_int size_bytes) ]

(* Fields whose values must be JSON strings rather than bare literals. *)
let json_value key v =
  match key with
  | "from" | "to" | "state" -> json_string v
  | "pacing" when v = "" -> "null"
  | _ -> v

let to_jsonl r =
  let buf = Buffer.create 128 in
  Buffer.add_string buf
    (Printf.sprintf "{\"t\":%s,\"flow\":%d,\"ev\":%s" (fl r.time) r.flow
       (json_string (event_name r.event)));
  List.iter
    (fun (k, v) ->
      Buffer.add_string buf (Printf.sprintf ",%s:%s" (json_string k) (json_value k v)))
    (fields r.event);
  Buffer.add_char buf '}';
  Buffer.contents buf

let jsonl_sink oc r =
  output_string oc (to_jsonl r);
  output_char oc '\n'

(* ---------- rollups ---------- *)

module Metrics = struct
  type t = {
    rate_bps : float option;
    mutable events : int;
    mutable sends : int;
    mutable retransmits : int;
    mutable acks : int;
    mutable seg_losts : int;
    mutable drops : int;
    mutable rto_fires : int;
    mutable recovery_entries : int;
    mutable states : (string * int) list;  (* Cc_sample counts per state *)
    mutable queue_delays : float list;  (* seconds, newest first *)
    mutable flow_starts : int;
    mutable flow_completes : int;
    mutable fcts : float list;  (* seconds, newest first *)
  }

  let create ?rate_bps () =
    {
      rate_bps;
      events = 0;
      sends = 0;
      retransmits = 0;
      acks = 0;
      seg_losts = 0;
      drops = 0;
      rto_fires = 0;
      recovery_entries = 0;
      states = [];
      queue_delays = [];
      flow_starts = 0;
      flow_completes = 0;
      fcts = [];
    }

  let observe t r =
    t.events <- t.events + 1;
    match r.event with
    | Send { retransmit; _ } ->
      t.sends <- t.sends + 1;
      if retransmit then t.retransmits <- t.retransmits + 1
    | Ack _ -> t.acks <- t.acks + 1
    | Seg_lost _ -> t.seg_losts <- t.seg_losts + 1
    | Drop _ -> t.drops <- t.drops + 1
    | Rto_fire _ -> t.rto_fires <- t.rto_fires + 1
    | Recovery_enter _ -> t.recovery_entries <- t.recovery_entries + 1
    | Recovery_exit | Cc_state_change _ -> ()
    | Cc_sample { cc_state; _ } ->
      let n = Option.value ~default:0 (List.assoc_opt cc_state t.states) in
      t.states <- (cc_state, n + 1) :: List.remove_assoc cc_state t.states
    | Queue_sample { queue_bytes; _ } -> (
      match t.rate_bps with
      | Some rate when rate > 0.0 ->
        t.queue_delays <-
          (float_of_int queue_bytes *. Units.bits_per_byte /. rate)
          :: t.queue_delays
      | _ -> ())
    | Flow_start _ -> t.flow_starts <- t.flow_starts + 1
    | Flow_complete { fct; _ } ->
      t.flow_completes <- t.flow_completes + 1;
      t.fcts <- fct :: t.fcts

  type summary = {
    events : int;
    sends : int;
    retransmits : int;
    acks : int;
    seg_losts : int;
    drops : int;
    rto_fires : int;
    recovery_entries : int;
    retransmit_rate : float;
    drop_rate : float;
    state_occupancy : (string * float) list;
    queue_delay_quantiles : (float * float) list;
    flow_starts : int;
    flow_completes : int;
    fct_quantiles : (float * float) list;
  }

  let summary t =
    let rate num den = if den = 0 then nan else float_of_int num /. float_of_int den in
    let total_samples = List.fold_left (fun acc (_, n) -> acc + n) 0 t.states in
    let occupancy =
      List.map
        (fun (state, n) -> (state, float_of_int n /. float_of_int total_samples))
        t.states
      |> List.sort (fun (sa, a) (sb, b) ->
             match compare b a with 0 -> compare sa sb | c -> c)
    in
    let quantiles =
      match t.queue_delays with
      | [] -> []
      | delays ->
        List.map (fun p -> (p, Stats.percentile delays ~p)) [ 50.0; 90.0; 99.0 ]
    in
    {
      events = t.events;
      sends = t.sends;
      retransmits = t.retransmits;
      acks = t.acks;
      seg_losts = t.seg_losts;
      drops = t.drops;
      rto_fires = t.rto_fires;
      recovery_entries = t.recovery_entries;
      retransmit_rate = rate t.retransmits t.sends;
      drop_rate = rate t.drops t.sends;
      state_occupancy = (if total_samples = 0 then [] else occupancy);
      queue_delay_quantiles = quantiles;
      flow_starts = t.flow_starts;
      flow_completes = t.flow_completes;
      fct_quantiles =
        (match t.fcts with
        | [] -> []
        | fcts ->
          List.map (fun p -> (p, Stats.percentile fcts ~p)) [ 50.0; 95.0; 99.0 ]);
    }

  let of_records ?rate_bps records =
    let t = create ?rate_bps () in
    List.iter (observe t) records;
    summary t

  let summary_line (s : summary) =
    let b = Buffer.create 160 in
    let add k v = Buffer.add_string b (Printf.sprintf "%s=%s " k v) in
    add "events" (string_of_int s.events);
    add "sends" (string_of_int s.sends);
    add "retransmits" (string_of_int s.retransmits);
    add "acks" (string_of_int s.acks);
    add "seg_losts" (string_of_int s.seg_losts);
    add "drops" (string_of_int s.drops);
    add "rto_fires" (string_of_int s.rto_fires);
    add "recovery_entries" (string_of_int s.recovery_entries);
    add "retransmit_rate" (fl s.retransmit_rate);
    add "drop_rate" (fl s.drop_rate);
    List.iter
      (fun (p, d) -> add (Printf.sprintf "p%.0f_queue_delay" p) (fl d))
      s.queue_delay_quantiles;
    add "flow_starts" (string_of_int s.flow_starts);
    add "flow_completes" (string_of_int s.flow_completes);
    List.iter
      (fun (p, d) -> add (Printf.sprintf "p%.0f_fct" p) (fl d))
      s.fct_quantiles;
    (match s.state_occupancy with
    | [] -> ()
    | occ ->
      add "occupancy"
        (String.concat ","
           (List.map (fun (state, f) -> state ^ ":" ^ fl f) occ)));
    String.trim (Buffer.contents b)
end
