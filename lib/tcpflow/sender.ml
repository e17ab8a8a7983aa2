module Sim = Sim_engine.Sim
module Tr = Sim_engine.Trace
module Packet = Netsim.Packet
module Dumbbell = Netsim.Dumbbell
module Cc = Cca.Cc_types

(* Hot mutable floats live in their own all-float record: OCaml stores such
   records flat, so the per-ACK updates below write unboxed doubles instead
   of allocating a box per store (which they would in the mixed record). *)
type float_state = {
  mutable delivered : float;
  mutable delivered_time : float;
  mutable next_round_delivered : float;
  mutable srtt : float;
  mutable rttvar : float;
  mutable min_rtt : float;
  mutable next_send_time : float;
}

type t = {
  sim : Sim.t;
  net : Dumbbell.t;
  mutable flow : int;
  mss : int;
  mutable cc : Cc.t;
  mutable seg_limit : int;  (* max_int = unlimited (bulk flow) *)
  mutable size_limit_bytes : int;  (* -1 = unlimited; for lifecycle events *)
  trace : Tr.t option;
  mutable next_seq : int;
  mutable cum_ack : int;  (* all segments below this are acked *)
  (* Segment ring: per-segment transmission state for the live window
     [cum_ack, next_seq), as parallel arrays indexed by
     [seq land (capacity - 1)] (power-of-two capacity, grown
     geometrically). Advancing [cum_ack] frees a cell; nothing is
     allocated per segment. A seq outside the window reads as acked with
     no retransmissions: an already-collected segment. *)
  mutable sg_flags : Bytes.t;  (* [acked_bit] lor [lost_bit] *)
  mutable sg_retx : int array;  (* retransmissions so far *)
  mutable sg_sent : float array;  (* time of the latest transmission *)
  mutable sg_counted : int array;
      (* Bytes of the segment currently counted in [inflight_bytes] (0,
         mss, or a multiple when several copies are outstanding).
         Decrements consult this instead of assuming one MSS, so in-flight
         accounting stays exact across RTOs and late ACKs. *)
  (* Send-order ring (parallel arrays, power-of-two capacity): one
     (seq, sent-time) pair per transmission, FIFO. An entry is stale when
     the segment was acked or retransmitted after this transmission.
     Replaces a [Queue] of records — push/pop allocate nothing. *)
  mutable o_seqs : int array;
  mutable o_times : float array;
  mutable o_head : int;
  mutable o_len : int;
  retx_queue : int Queue.t;
  (* Free pool of recycled packets (a bounded stack): a packet comes back
     when its ACK has been fully processed, so no queue, lane or trace still
     reads it (a vacated ring cell may point at it until overwritten).
     Dropped packets simply never return. A pop leaves its cell as is. *)
  pk_pool : Packet.t array;
  mutable pk_pool_len : int;
  mutable inflight_bytes : int;
  (* Delivery accounting (BBR-style), RTT estimation and pacing clock. *)
  fs : float_state;
  mutable round : int;
  (* Recovery state. *)
  mutable in_recovery : bool;
  mutable recovery_high : int;
  (* Timers, made once in [create] (their actions close over [t]), so
     re-arming allocates nothing: the RTO, re-armed on every ACK, and the
     pacing clock. *)
  mutable rto : Sim.Timer.t;
  mutable rto_backoff : int;  (* consecutive unanswered RTO firings *)
  mutable pacer : Sim.Timer.t;
  (* One scratch [ack_info], refilled per ACK: the float stores land in the
     flat [ack_floats] sub-record, so notifying the CCA allocates nothing.
     Valid only for the duration of the [on_ack] call. *)
  ack_scratch : Cc.ack_info;
  (* Telemetry. *)
  mutable last_cc_state : string;
  (* Counters. *)
  mutable lost_segments : int;
  mutable retransmitted_segments : int;
  (* Lifecycle. A sender slot is created once and can host a succession of
     flows ([rebind]): [finished] gates ACK processing after completion so a
     late retransmitted copy cannot touch the slot's next tenant. Every
     tenant of one slot shares [reverse_delay] (see [rebind]). The receiver
     and ACK-handler closures are allocated once and registered for each
     tenant's flow id. *)
  mutable finished : bool;
  mutable activation_time : float;  (* nan until activated *)
  mutable completion_time : float;  (* nan until completed *)
  mutable on_complete : unit -> unit;
  mutable reverse_delay : float;
  mutable recv_cb : Packet.t -> unit;
  mutable ack_cb : Packet.t -> unit;
  mutable start : Sim.Timer.t;  (* the first tenant's activation *)
}

let flow t = t.flow
let cc t = t.cc
let mss t = t.mss
let next_seq t = t.next_seq
let cum_ack t = t.cum_ack
let delivered_bytes t = t.fs.delivered
let inflight_bytes t = t.inflight_bytes
let lost_segments t = t.lost_segments
let retransmitted_segments t = t.retransmitted_segments
let rounds t = t.round
let srtt t = t.fs.srtt
let min_rtt_observed t = t.fs.min_rtt
let rto_backoff t = t.rto_backoff
let snapshot_delivered t = (Sim.now t.sim, t.fs.delivered)
let completed t = t.seg_limit < max_int && t.cum_ack >= t.seg_limit
let finished t = t.finished
let activation_time t = t.activation_time
let completion_time t = t.completion_time
let fct t = t.completion_time -. t.activation_time
let size_limit_bytes t = t.size_limit_bytes
let set_on_complete t f = t.on_complete <- f

let[@simlint.alloc_ok "amortized geometric growth; the ring never shrinks"]
    order_grow t =
  let cap = Array.length t.o_seqs in
  let seqs = Array.make (2 * cap) 0 in
  let times = Array.make (2 * cap) 0.0 in
  for i = 0 to t.o_len - 1 do
    let j = (t.o_head + i) land (cap - 1) in
    seqs.(i) <- t.o_seqs.(j);
    times.(i) <- t.o_times.(j)
  done;
  t.o_seqs <- seqs;
  t.o_times <- times;
  t.o_head <- 0

let order_push t ~seq ~time =
  if t.o_len = Array.length t.o_seqs then order_grow t;
  let tail = (t.o_head + t.o_len) land (Array.length t.o_seqs - 1) in
  t.o_seqs.(tail) <- seq;
  t.o_times.(tail) <- time;
  t.o_len <- t.o_len + 1

let order_pop t =
  t.o_head <- (t.o_head + 1) land (Array.length t.o_seqs - 1);
  t.o_len <- t.o_len - 1

let acked_bit = 1
let lost_bit = 2
let seg_initial = 256
let slot t seq = seq land (Array.length t.sg_retx - 1)
let flags t i = Char.code (Bytes.get t.sg_flags i)
let set_flags t i v = Bytes.set t.sg_flags i (Char.unsafe_chr v)
let in_window t seq = seq >= t.cum_ack && seq < t.next_seq

let seg_acked t seq =
  (not (in_window t seq)) || flags t (slot t seq) land acked_bit <> 0

let[@simlint.alloc_ok "amortized geometric growth; the ring never shrinks"]
    seg_grow t =
  let cap = 2 * Array.length t.sg_retx in
  let fl = Bytes.make cap '\000' in
  let retx = Array.make cap 0 in
  let sent = Array.make cap 0.0 in
  let counted = Array.make cap 0 in
  for seq = t.cum_ack to t.next_seq - 1 do
    let i = slot t seq and j = seq land (cap - 1) in
    Bytes.set fl j (Bytes.get t.sg_flags i);
    retx.(j) <- t.sg_retx.(i);
    sent.(j) <- t.sg_sent.(i);
    counted.(j) <- t.sg_counted.(i)
  done;
  t.sg_flags <- fl;
  t.sg_retx <- retx;
  t.sg_sent <- sent;
  t.sg_counted <- counted

(* Open the cell of the next fresh segment [seq] (= [next_seq]); its send
   time is stamped by [transmit]. *)
let seg_open t seq =
  if seq - t.cum_ack = Array.length t.sg_retx then seg_grow t;
  let i = slot t seq in
  set_flags t i 0;
  t.sg_retx.(i) <- 0;
  t.sg_counted.(i) <- 0

(* The tracked in-flight total must equal the per-segment contributions at
   all times; [on_rto] asserts this after its sweep and tests probe it
   mid-run. *)
let check_inflight_invariant t =
  let sum = ref 0 in
  for seq = t.cum_ack to t.next_seq - 1 do
    let counted = t.sg_counted.(slot t seq) in
    if counted < 0 then
      failwith
        (Printf.sprintf "Sender: segment %d counts %d in-flight bytes" seq
           counted);
    sum := !sum + counted
  done;
  if !sum <> t.inflight_bytes then
    failwith
      (Printf.sprintf
         "Sender: in-flight drift: tracked %d bytes, per-segment sum %d"
         t.inflight_bytes !sum)

(* Trace emission allocates the event payload (and the record inside
   [Trace.emit]); every site below is gated on a sink being attached, and
   the records are the run's product, so A1 exempts them by name. The
   per-packet helpers read the clock themselves: a float argument would be
   boxed at every call, traced or not. *)

(* CC-state transitions surface as trace events; the comparison runs only
   when a trace is attached. *)
let[@simlint.alloc_ok
     "trace event: built only with a sink attached; the record is the \
      product"] note_cc_state t =
  match t.trace with
  | None -> ()
  | Some tr ->
    let state = t.cc.Cc.state () in
    if not (String.equal state t.last_cc_state) then begin
      Tr.emit tr ~time:(Sim.now t.sim) ~flow:t.flow
        (Tr.Cc_state_change { from_state = t.last_cc_state; to_state = state });
      t.last_cc_state <- state
    end

let[@simlint.alloc_ok
     "trace event: built only with a sink attached; the record is the \
      product"] trace_send t ~seq ~retransmit =
  match t.trace with
  | None -> ()
  | Some tr ->
    Tr.emit tr ~time:(Sim.now t.sim) ~flow:t.flow
      (Tr.Send { seq; size = t.mss; retransmit })

let[@simlint.alloc_ok
     "trace event: built only with a sink attached; the record is the \
      product"] trace_ack t (trig : Packet.t) =
  match t.trace with
  | None -> ()
  | Some tr ->
    let now = Sim.now t.sim in
    Tr.emit tr ~time:now ~flow:t.flow
      (Tr.Ack
         {
           seq = trig.seq;
           rtt_sample = now -. trig.ts.sent_time;
           delivered_bytes = t.fs.delivered;
           inflight_bytes = t.inflight_bytes;
         })

let[@simlint.alloc_ok
     "trace event: built only with a sink attached; the record is the \
      product"] trace_seg_lost t ~seq ~via_timeout =
  match t.trace with
  | None -> ()
  | Some tr ->
    Tr.emit tr ~time:(Sim.now t.sim) ~flow:t.flow
      (Tr.Seg_lost { seq; via_timeout })

let[@simlint.alloc_ok
     "trace event: built only with a sink attached; the record is the \
      product"] trace_recovery_enter t ~now ~via_timeout ~lost_bytes =
  match t.trace with
  | None -> ()
  | Some tr ->
    Tr.emit tr ~time:now ~flow:t.flow
      (Tr.Recovery_enter { via_timeout; lost_bytes })

let[@simlint.alloc_ok
     "trace event: built only with a sink attached; the record is the \
      product"] trace_flow_start t ~now =
  match t.trace with
  | None -> ()
  | Some tr ->
    Tr.emit tr ~time:now ~flow:t.flow
      (Tr.Flow_start { size_limit_bytes = t.size_limit_bytes })

let[@simlint.alloc_ok
     "trace event: built only with a sink attached; the record is the \
      product"] trace_flow_complete t ~now =
  match t.trace with
  | None -> ()
  | Some tr ->
    Tr.emit tr ~time:now ~flow:t.flow
      (Tr.Flow_complete
         { fct = now -. t.activation_time; size_bytes = t.size_limit_bytes })

(* Advance the cumulative ACK point over acked segments, freeing their
   ring cells. *)
let advance_cum_ack t =
  while
    t.cum_ack < t.next_seq && flags t (slot t t.cum_ack) land acked_bit <> 0
  do
    t.cum_ack <- t.cum_ack + 1
  done

(* RACK sweep: every order-ring entry sent before the triggering
   transmission and still unacked is lost. Returns the count of segments
   newly marked lost. Toplevel (rather than a local [let rec]) so the
   per-ACK path builds no closure. *)
let rec reap_lost t (trig : Packet.t) acc =
  if t.o_len = 0 then acc
  else begin
    let e_seq = t.o_seqs.(t.o_head) in
    let e_sent_time = t.o_times.(t.o_head) in
    if seg_acked t e_seq || t.sg_sent.(slot t e_seq) <> e_sent_time then begin
      (* Stale entry: segment acked, or retransmitted more recently. *)
      order_pop t;
      reap_lost t trig acc
    end
    else if e_sent_time < trig.ts.sent_time then begin
      order_pop t;
      let i = slot t e_seq in
      let acc =
        if flags t i land lost_bit = 0 then begin
          set_flags t i (flags t i lor lost_bit);
          t.lost_segments <- t.lost_segments + 1;
          (Queue.push e_seq t.retx_queue)
          [@simlint.alloc_ok
            "loss path: one retransmit-queue cell per newly lost segment"];
          (* This entry is the segment's latest transmission; that one copy
             stops counting (earlier copies already stopped when the entry
             they belonged to went stale). *)
          let dec = min t.sg_counted.(i) t.mss in
          t.sg_counted.(i) <- t.sg_counted.(i) - dec;
          t.inflight_bytes <- t.inflight_bytes - dec;
          trace_seg_lost t ~seq:e_seq ~via_timeout:false;
          acc + 1
        end
        else acc
      in
      reap_lost t trig acc
    end
    else acc
  end

let rto_base t =
  if Float.is_nan t.fs.srtt then 1.0
  else Float.max 0.2 (t.fs.srtt +. (4.0 *. t.fs.rttvar))

(* Exponential backoff: each unanswered RTO doubles the interval, capped at
   60 s; a valid ACK resets the backoff. *)
let rto_interval t = Float.min 60.0 (Float.ldexp (rto_base t) (min t.rto_backoff 16))

let rec arm_rto t = Sim.Timer.set t.rto ~delay:(rto_interval t)

and on_rto t =
  if t.inflight_bytes > 0 then begin
    (* Declare everything in flight lost and restart. *)
    let fired_interval = rto_interval t in
    let newly_lost = ref 0 in
    (* Walk the live window in sequence order: retransmissions are queued
       lowest-sequence first. *)
    for seq = t.cum_ack to t.next_seq - 1 do
      let i = slot t seq in
      let f = flags t i in
      if f land (acked_bit lor lost_bit) = 0 then begin
        set_flags t i (f lor lost_bit);
        incr newly_lost;
        Queue.push seq t.retx_queue;
        match t.trace with
        | None -> ()
        | Some tr ->
          Tr.emit tr ~time:(Sim.now t.sim) ~flow:t.flow
            (Tr.Seg_lost { seq; via_timeout = true })
      end;
      (* Nothing survives the timeout: every outstanding copy stops
         counting, whether or not the segment was already marked lost. *)
      t.inflight_bytes <- t.inflight_bytes - t.sg_counted.(i);
      t.sg_counted.(i) <- 0
    done;
    assert (t.inflight_bytes = 0);
    t.lost_segments <- t.lost_segments + !newly_lost;
    (match t.trace with
    | None -> ()
    | Some tr ->
      Tr.emit tr ~time:(Sim.now t.sim) ~flow:t.flow
        (Tr.Rto_fire
           {
             interval = fired_interval;
             backoff = t.rto_backoff;
             lost_segments = !newly_lost;
           });
      if not t.in_recovery then
        Tr.emit tr ~time:(Sim.now t.sim) ~flow:t.flow
          (Tr.Recovery_enter
             { via_timeout = true; lost_bytes = !newly_lost * t.mss }));
    t.rto_backoff <- t.rto_backoff + 1;
    t.in_recovery <- true;
    t.recovery_high <- t.next_seq;
    t.cc.Cc.on_loss
      {
        Cc.now = Sim.now t.sim;
        lost_bytes = !newly_lost * t.mss;
        inflight_bytes = 0;
        via_timeout = true;
      };
    note_cc_state t;
    arm_rto t;
    try_send t
  end

(* [seq] is in the window: a fresh segment opened by [send_one], or a lost
   one being retransmitted. *)
and transmit t ~seq ~retransmit =
  let now = Sim.now t.sim in
  let i = slot t seq in
  t.sg_sent.(i) <- now;
  set_flags t i (flags t i land lnot lost_bit);
  if retransmit then begin
    t.sg_retx.(i) <- t.sg_retx.(i) + 1;
    t.retransmitted_segments <- t.retransmitted_segments + 1
  end;
  order_push t ~seq ~time:now;
  t.sg_counted.(i) <- t.sg_counted.(i) + t.mss;
  t.inflight_bytes <- t.inflight_bytes + t.mss;
  let packet =
    if t.pk_pool_len > 0 then begin
      t.pk_pool_len <- t.pk_pool_len - 1;
      let p = t.pk_pool.(t.pk_pool_len) in
      (* Restamp the flow id: after [rebind] the pool holds packets
         recycled under the slot's previous tenant (late ACK copies keep
         arriving even after the switch). *)
      p.Packet.flow <- t.flow;
      p.Packet.seq <- seq;
      p.Packet.retransmit <- retransmit;
      p.Packet.ts.Packet.sent_time <- now;
      p.Packet.ts.Packet.delivered <- t.fs.delivered;
      p.Packet.ts.Packet.delivered_time <- t.fs.delivered_time;
      p
    end
    else
      Packet.make ~flow:t.flow ~seq ~size:t.mss ~retransmit ~sent_time:now
        ~delivered:t.fs.delivered ~delivered_time:t.fs.delivered_time
  in
  t.cc.Cc.on_send ~now ~inflight_bytes:t.inflight_bytes;
  trace_send t ~seq ~retransmit;
  (* Drops surface later through RACK/RTO, exactly as on a real path. *)
  ignore (Dumbbell.send t.net packet);
  if not (Sim.Timer.is_set t.rto) then arm_rto t

and try_send t =
  let now = Sim.now t.sim in
  let cwnd = t.cc.Cc.cwnd_bytes () in
  let rate = t.cc.Cc.pacing_rate () in
  if Float.is_nan rate then begin
    (* ACK-clocked: fill the window. *)
    let continue = ref true in
    while !continue && float_of_int (t.inflight_bytes + t.mss) <= cwnd do
      continue := send_one t
    done
  end
  else if rate <= 0.0 then ()
  else if float_of_int (t.inflight_bytes + t.mss) <= cwnd then begin
    if now >= t.fs.next_send_time then begin
      if send_one t then begin
        t.fs.next_send_time <-
          Float.max t.fs.next_send_time now +. (float_of_int t.mss /. rate);
        schedule_pacer t
      end
    end
    else schedule_pacer t
  end

(* Returns false when there is nothing (left) to send. *)
and send_one t =
  if not (Queue.is_empty t.retx_queue) then begin
    let seq = Queue.pop t.retx_queue in
    (* Skip stale retransmit requests (acked meanwhile). *)
    if seg_acked t seq then send_one t
    else begin
      transmit t ~seq ~retransmit:true;
      true
    end
  end
  else if t.next_seq >= t.seg_limit then false
  else begin
    let seq = t.next_seq in
    seg_open t seq;
    t.next_seq <- seq + 1;
    transmit t ~seq ~retransmit:false;
    true
  end

and schedule_pacer t =
  if not (Sim.Timer.is_set t.pacer) then
    Sim.Timer.set t.pacer
      ~delay:(Float.max 0.0 (t.fs.next_send_time -. Sim.now t.sim))

(* Process the arrival of the ACK generated by the (unique) reception of
   [trig]. *)
let on_ack_packet t (trig : Packet.t) =
  if t.finished then begin
    (* A late copy of an already-delivered segment arriving after the flow
       completed (or was deactivated): the slot may already host another
       flow, so nothing here may be touched — just recycle the packet. *)
    if t.pk_pool_len < Array.length t.pk_pool then begin
      t.pk_pool.(t.pk_pool_len) <- trig;
      t.pk_pool_len <- t.pk_pool_len + 1
    end
  end
  else begin
  let now = Sim.now t.sim in
  let live = in_window t trig.seq in
  let i = slot t trig.seq in
  (* Any ACK for an unacked segment means the receiver holds the data,
     whichever transmission got through — and that the path delivers, so
     the RTO backoff resets. *)
  t.rto_backoff <- 0;
  let first_delivery = live && flags t i land acked_bit = 0 in
  let rtt_valid = (not live) || t.sg_retx.(i) = 0 in
  if first_delivery then begin
    set_flags t i (flags t i lor acked_bit);
    t.fs.delivered <- t.fs.delivered +. float_of_int t.mss;
    t.fs.delivered_time <- now;
    (* Acked data stops counting in flight, however many copies of it were
       outstanding and whichever of them got through. *)
    t.inflight_bytes <- t.inflight_bytes - t.sg_counted.(i);
    t.sg_counted.(i) <- 0
  end;
  trace_ack t trig;
  (* Advance the cumulative ACK point, collecting old state. *)
  advance_cum_ack t;
  (* RACK: every segment sent before [trig] and still unacked is lost. *)
  let newly_lost = reap_lost t trig 0 in
  (* RTT estimators (Karn's rule: skip retransmitted segments). *)
  let rtt_sample = now -. trig.ts.sent_time in
  if rtt_valid then begin
    if Float.is_nan t.fs.srtt then begin
      t.fs.srtt <- rtt_sample;
      t.fs.rttvar <- rtt_sample /. 2.0
    end
    else begin
      t.fs.rttvar <-
        (0.75 *. t.fs.rttvar) +. (0.25 *. Float.abs (t.fs.srtt -. rtt_sample));
      t.fs.srtt <- (0.875 *. t.fs.srtt) +. (0.125 *. rtt_sample)
    end;
    if rtt_sample < t.fs.min_rtt then t.fs.min_rtt <- rtt_sample
  end;
  (* Loss-round bookkeeping: one CC notification per recovery episode. *)
  if newly_lost > 0 then begin
    if not t.in_recovery then begin
      t.in_recovery <- true;
      t.recovery_high <- t.next_seq;
      trace_recovery_enter t ~now ~via_timeout:false
        ~lost_bytes:(newly_lost * t.mss);
      t.cc.Cc.on_loss
        ({
           Cc.now = now;
           lost_bytes = newly_lost * t.mss;
           inflight_bytes = t.inflight_bytes;
           via_timeout = false;
         }
        [@simlint.alloc_ok "one loss notification record per recovery episode"])
    end
  end;
  if t.in_recovery && t.cum_ack >= t.recovery_high then begin
    t.in_recovery <- false;
    match t.trace with
    | None -> ()
    | Some tr -> Tr.emit tr ~time:now ~flow:t.flow Tr.Recovery_exit
  end;
  (* Round accounting and CC ACK notification for first-time deliveries. *)
  if first_delivery then begin
    let round_start = trig.ts.delivered >= t.fs.next_round_delivered in
    if round_start then begin
      t.round <- t.round + 1;
      t.fs.next_round_delivered <- t.fs.delivered
    end;
    let interval = now -. trig.ts.delivered_time in
    let delivery_rate =
      if interval > 0.0 then (t.fs.delivered -. trig.ts.delivered) /. interval
      else 0.0
    in
    let rtt_for_cc =
      if rtt_valid then rtt_sample
      else if Float.is_nan t.fs.srtt then rtt_sample
      else t.fs.srtt
    in
    let a = t.ack_scratch in
    a.Cc.f.Cc.now <- now;
    a.Cc.f.Cc.rtt_sample <- rtt_for_cc;
    a.Cc.f.Cc.delivered <- t.fs.delivered;
    a.Cc.f.Cc.delivery_rate <- delivery_rate;
    a.Cc.acked_bytes <- t.mss;
    a.Cc.inflight_bytes <- t.inflight_bytes;
    a.Cc.round <- t.round;
    a.Cc.round_start <- round_start;
    t.cc.Cc.on_ack a
  end;
  note_cc_state t;
  if completed t then begin
    Sim.Timer.stop t.rto;
    Sim.Timer.stop t.pacer;
    (* Transition to [finished] exactly once: the completion event carries
       the FCT, and the owner's callback may tear the flow down and rebind
       this slot, so it runs after all per-ACK state updates. *)
    t.finished <- true;
    t.completion_time <- now;
    trace_flow_complete t ~now;
    t.on_complete ()
  end
  else begin
    arm_rto t;
    try_send t
  end;
  (* [trig] has left the network (its delivery popped it from the reverse
     lane) and every use above copied values out, so it can be recycled. *)
  if t.pk_pool_len < Array.length t.pk_pool then begin
    t.pk_pool.(t.pk_pool_len) <- trig;
    t.pk_pool_len <- t.pk_pool_len + 1
  end
  end

let[@simlint.alloc_ok "one bounds tuple per slot (re)activation"] limits
    ~mss ~data_limit_bytes ~who =
  match data_limit_bytes with
  | None -> (max_int, -1)
  | Some bytes ->
    if bytes <= 0 then invalid_arg (who ^ ": data_limit_bytes");
    ((bytes + mss - 1) / mss, bytes)

let create ~net ~flow ~cc ?(mss = Sim_engine.Units.mss)
    ?(start_time = Sim_engine.Units.seconds 0.0)
    ?data_limit_bytes ?on_complete ?trace () =
  let sim = Dumbbell.sim net in
  let seg_limit, size_limit_bytes =
    limits ~mss ~data_limit_bytes ~who:"Sender.create"
  in
  let unset = Sim.Timer.create sim ignore in
  let t =
    {
      sim;
      net;
      flow;
      mss;
      cc;
      seg_limit;
      size_limit_bytes;
      trace;
      next_seq = 0;
      cum_ack = 0;
      sg_flags = Bytes.make seg_initial '\000';
      sg_retx = Array.make seg_initial 0;
      sg_sent = Array.make seg_initial 0.0;
      sg_counted = Array.make seg_initial 0;
      o_seqs = Array.make 256 0;
      o_times = Array.make 256 0.0;
      o_head = 0;
      o_len = 0;
      retx_queue = Queue.create ();
      pk_pool = Array.make 512 Packet.dummy;
      pk_pool_len = 0;
      inflight_bytes = 0;
      fs =
        {
          delivered = 0.0;
          delivered_time = 0.0;
          next_round_delivered = 0.0;
          srtt = nan;
          rttvar = 0.0;
          min_rtt = infinity;
          next_send_time = 0.0;
        };
      round = 0;
      in_recovery = false;
      recovery_high = 0;
      ack_scratch =
        {
          Cc.f =
            {
              Cc.now = 0.0;
              rtt_sample = 0.0;
              delivered = 0.0;
              delivery_rate = 0.0;
            };
          acked_bytes = 0;
          rate_app_limited = false;
          inflight_bytes = 0;
          round = 0;
          round_start = false;
        };
      rto = unset;
      rto_backoff = 0;
      pacer = unset;
      last_cc_state = cc.Cc.state ();
      lost_segments = 0;
      retransmitted_segments = 0;
      finished = false;
      activation_time = nan;
      completion_time = nan;
      on_complete = (match on_complete with None -> ignore | Some f -> f);
      reverse_delay = 0.0;
      recv_cb = ignore;
      ack_cb = ignore;
      start = unset;
    }
  in
  t.rto <- Sim.Timer.create sim (fun () -> on_rto t);
  t.pacer <- Sim.Timer.create sim (fun () -> try_send t);
  (* Receiver: each arriving data packet generates one ACK, which the
     dumbbell's reverse path (a calendar lane shared by every flow with
     this delay) hands back to [ack_cb] after the flow's reverse delay. *)
  t.reverse_delay <- (Dumbbell.reverse_delay net ~flow :> float);
  t.recv_cb <- (fun packet -> Dumbbell.send_ack net packet);
  t.ack_cb <- (fun packet -> on_ack_packet t packet);
  Dumbbell.set_receiver net ~flow t.recv_cb;
  Dumbbell.set_ack_handler net ~flow t.ack_cb;
  t.start <-
    Sim.Timer.create sim (fun () ->
        let now = Sim.now sim in
        t.activation_time <- now;
        t.fs.delivered_time <- now;
        trace_flow_start t ~now;
        try_send t);
  Sim.Timer.set t.start ~delay:(start_time :> float);
  t

let deactivate t =
  if not t.finished then begin
    Sim.Timer.stop t.start;
    Sim.Timer.stop t.rto;
    Sim.Timer.stop t.pacer;
    t.finished <- true
  end

(* Reset every piece of per-flow state while keeping the allocated
   containers (segment ring, order ring, retransmit queue, packet pool,
   scratch records, timer and ACK callbacks): in steady-state churn the
   arrival path allocates only the tenant's CC instance, never the slot
   machinery. *)
let rebind t ~flow ~cc ?data_limit_bytes () =
  if not t.finished then
    invalid_arg "Sender.rebind: slot still hosts an active flow";
  let seg_limit, size_limit_bytes =
    limits ~mss:t.mss ~data_limit_bytes ~who:"Sender.rebind"
  in
  t.flow <- flow;
  t.cc <- cc;
  t.seg_limit <- seg_limit;
  t.size_limit_bytes <- size_limit_bytes;
  t.next_seq <- 0;
  t.cum_ack <- 0;
  t.o_head <- 0;
  t.o_len <- 0;
  Queue.clear t.retx_queue;
  t.inflight_bytes <- 0;
  t.fs.delivered <- 0.0;
  t.fs.delivered_time <- 0.0;
  t.fs.next_round_delivered <- 0.0;
  t.fs.srtt <- nan;
  t.fs.rttvar <- 0.0;
  t.fs.min_rtt <- infinity;
  t.fs.next_send_time <- 0.0;
  t.round <- 0;
  t.in_recovery <- false;
  t.recovery_high <- 0;
  t.rto_backoff <- 0;
  t.last_cc_state <- cc.Cc.state ();
  t.lost_segments <- 0;
  t.retransmitted_segments <- 0;
  t.completion_time <- nan;
  (* Tenants of one slot share a reverse delay, hence one reverse lane: a
     late ACK of the previous tenant (which still reaches this slot through
     its flow's ACK handler) stays FIFO with the new tenant's ACKs.
     Enforce, rather than document, the homogeneity requirement. *)
  let reverse = (Dumbbell.reverse_delay t.net ~flow :> float) in
  if
    Float.abs (reverse -. t.reverse_delay) > 1e-12
    && not (Float.is_nan t.activation_time) (* slot was used before *)
  then invalid_arg "Sender.rebind: tenants of one slot must share an RTT";
  t.reverse_delay <- reverse;
  Dumbbell.set_receiver t.net ~flow t.recv_cb;
  Dumbbell.set_ack_handler t.net ~flow t.ack_cb;
  (* Activate immediately: rebinding happens at the new flow's arrival
     instant. *)
  let now = Sim.now t.sim in
  t.finished <- false;
  t.activation_time <- now;
  t.fs.delivered_time <- now;
  trace_flow_start t ~now;
  try_send t
