(* Packets as int handles into struct-of-arrays columns. Queues and lanes
   store the handle, an immediate, so storing one takes no write barrier;
   the float stamps live in float arrays, so stamping one boxes nothing.
   [take] is inlined into the sender's transmit path, so its float
   arguments never box either. *)

type t = int

type table = {
  mutable flow : int array;
  mutable seq : int array;
  mutable size : int array;
  mutable state : Bytes.t;  (* [free_state], [live_plain] or [live_retx] *)
  mutable sent_time : float array;
  mutable delivered : float array;
  mutable delivered_time : float array;
  mutable free : int array;  (* stack of free handles, [n_free] deep *)
  mutable n_free : int;  (* every other handle is live *)
}

let free_state = '\000'
let live_plain = '\001'
let live_retx = '\003'
let initial = 64

let create_table () =
  {
    flow = Array.make initial 0;
    seq = Array.make initial 0;
    size = Array.make initial 0;
    state = Bytes.make initial free_state;
    sent_time = Array.make initial 0.0;
    delivered = Array.make initial 0.0;
    delivered_time = Array.make initial 0.0;
    (* Lowest handle on top, so a fresh table issues 0, 1, 2, ... *)
    free = Array.init initial (fun i -> initial - 1 - i);
    n_free = initial;
  }

let[@simlint.alloc_ok "amortized geometric growth; the table never shrinks"]
    grow tb =
  let cap = Array.length tb.flow in
  let cap' = 2 * cap in
  tb.flow <- Array.append tb.flow (Array.make cap 0);
  tb.seq <- Array.append tb.seq (Array.make cap 0);
  tb.size <- Array.append tb.size (Array.make cap 0);
  tb.state <- Bytes.extend tb.state 0 cap;
  Bytes.fill tb.state cap cap free_state;
  tb.sent_time <- Array.append tb.sent_time (Array.make cap 0.0);
  tb.delivered <- Array.append tb.delivered (Array.make cap 0.0);
  tb.delivered_time <- Array.append tb.delivered_time (Array.make cap 0.0);
  (* Only called with the free stack empty: every old handle is live. *)
  tb.free <- Array.init cap' (fun i -> cap' - 1 - i);
  tb.n_free <- cap

let[@inline] take tb ~flow ~seq ~size ~retransmit ~sent_time ~delivered
    ~delivered_time =
  if tb.n_free = 0 then grow tb;
  let n = tb.n_free - 1 in
  let h = tb.free.(n) in
  tb.n_free <- n;
  Bytes.set tb.state h (if retransmit then live_retx else live_plain);
  tb.flow.(h) <- flow;
  tb.seq.(h) <- seq;
  tb.size.(h) <- size;
  tb.sent_time.(h) <- sent_time;
  tb.delivered.(h) <- delivered;
  tb.delivered_time.(h) <- delivered_time;
  h

let[@inline] is_live tb h =
  h >= 0 && h < Bytes.length tb.state && Bytes.get tb.state h <> free_state

let release tb h =
  if not (is_live tb h) then invalid_arg "Packet.release: handle not live";
  Bytes.set tb.state h free_state;
  tb.free.(tb.n_free) <- h;
  tb.n_free <- tb.n_free + 1

let[@inline] flow tb h = tb.flow.(h)
let[@inline] seq tb h = tb.seq.(h)
let[@inline] size tb h = tb.size.(h)
let[@inline] retransmit tb h = Bytes.get tb.state h = live_retx
let[@inline] sent_time tb h = tb.sent_time.(h)
let[@inline] delivered tb h = tb.delivered.(h)
let[@inline] delivered_time tb h = tb.delivered_time.(h)
let live tb = Array.length tb.flow - tb.n_free
