type verdict = Enqueued | Dropped

type policy =
  | Tail_drop
  | Red of {
      min_threshold : float;
      max_threshold : float;
      max_p : float;
      weight : float;
      rng : Sim_engine.Rng.t;
    }

type t = {
  capacity_bytes : int;
  policy : policy;
  (* Packet FIFO as a ring buffer: push/pop allocate nothing, unlike
     [Queue.t] (a cons cell per push, an option per [take_opt]). *)
  mutable ring : Packet.t array;
  mutable head : int;
  mutable len : int;
  mutable bytes : int;
  mutable avg_bytes : float;  (* RED EWMA; tracks [bytes] under Tail_drop *)
  mutable per_flow : int array;
      (* Queued bytes per flow id, grown geometrically to the largest id
         seen: flow ids are small non-negative ints, so an array lookup
         replaces a hash probe on every enqueue and dequeue. *)
  mutable drops : int;
  mutable early_drops : int;
  mutable dropped_bytes : int;
  mutable enqueued_packets : int;
  mutable enqueued_bytes : int;
  mutable drop_hook : early:bool -> Packet.t -> unit;
}

let red_defaults ~rng ~capacity_bytes =
  let b = float_of_int capacity_bytes in
  Red
    {
      min_threshold = 0.25 *. b;
      max_threshold = 0.75 *. b;
      max_p = 0.1;
      weight = 0.002;
      rng;
    }

let create ?(policy = Tail_drop) ~capacity_bytes () =
  if capacity_bytes <= 0 then invalid_arg "Droptail_queue.create: capacity";
  (match policy with
  | Tail_drop -> ()
  | Red { min_threshold; max_threshold; max_p; weight; _ } ->
    if
      min_threshold < 0.0
      || max_threshold <= min_threshold
      || max_p <= 0.0 || max_p > 1.0
      || weight <= 0.0 || weight > 1.0
    then invalid_arg "Droptail_queue.create: RED parameters");
  {
    capacity_bytes;
    policy;
    ring = Array.make 16 Packet.dummy;
    head = 0;
    len = 0;
    bytes = 0;
    avg_bytes = 0.0;
    per_flow = Array.make 16 0;
    drops = 0;
    early_drops = 0;
    dropped_bytes = 0;
    enqueued_packets = 0;
    enqueued_bytes = 0;
    drop_hook = (fun ~early:_ _ -> ());
  }

let capacity_bytes t = t.capacity_bytes

let[@simlint.alloc_ok "amortized geometric growth to the largest flow id"]
    grow_flows t flow =
  let a = Array.make (max (flow + 1) (2 * Array.length t.per_flow)) 0 in
  Array.blit t.per_flow 0 a 0 (Array.length t.per_flow);
  t.per_flow <- a

let adjust_flow t flow delta =
  if flow >= Array.length t.per_flow then grow_flows t flow;
  t.per_flow.(flow) <- t.per_flow.(flow) + delta

let[@simlint.alloc_ok "amortized geometric growth; the ring never shrinks"]
    grow t =
  let cap = Array.length t.ring in
  let ring = Array.make (2 * cap) Packet.dummy in
  for i = 0 to t.len - 1 do
    ring.(i) <- t.ring.((t.head + i) land (cap - 1))
  done;
  t.ring <- ring;
  t.head <- 0

(* RED early-drop decision on arrival (gentle variant, byte mode). *)
let red_early_drop t =
  match t.policy with
  | Tail_drop -> false
  | Red { min_threshold; max_threshold; max_p; weight; rng } ->
    t.avg_bytes <-
      ((1.0 -. weight) *. t.avg_bytes) +. (weight *. float_of_int t.bytes);
    if t.avg_bytes <= min_threshold then false
    else begin
      let p =
        if t.avg_bytes < max_threshold then
          max_p
          *. (t.avg_bytes -. min_threshold)
          /. (max_threshold -. min_threshold)
        else
          (* gentle RED: ramp from max_p to 1 between max_th and 2 max_th *)
          Float.min 1.0
            (max_p
            +. ((1.0 -. max_p)
               *. (t.avg_bytes -. max_threshold)
               /. max_threshold))
      in
      Sim_engine.Rng.float rng 1.0 < p
    end

let record_drop t (p : Packet.t) ~early =
  t.drops <- t.drops + 1;
  if early then t.early_drops <- t.early_drops + 1;
  t.dropped_bytes <- t.dropped_bytes + p.size;
  t.drop_hook ~early p;
  Dropped

let enqueue t (p : Packet.t) =
  if t.bytes + p.size > t.capacity_bytes then record_drop t p ~early:false
  else if red_early_drop t then record_drop t p ~early:true
  else begin
    if t.len = Array.length t.ring then grow t;
    t.ring.((t.head + t.len) land (Array.length t.ring - 1)) <- p;
    t.len <- t.len + 1;
    t.bytes <- t.bytes + p.size;
    t.enqueued_packets <- t.enqueued_packets + 1;
    t.enqueued_bytes <- t.enqueued_bytes + p.size;
    adjust_flow t p.flow p.size;
    Enqueued
  end

exception Empty

let dequeue_exn t =
  if t.len = 0 then raise Empty;
  let h = t.head in
  (* No [Packet.dummy] store into the vacated cell: the next enqueue
     overwrites it, and the stale reference retains nothing, as the packet
     is still in flight or back in its sender's pool. *)
  let p = t.ring.(h) in
  t.head <- (h + 1) land (Array.length t.ring - 1);
  t.len <- t.len - 1;
  t.bytes <- t.bytes - p.size;
  adjust_flow t p.flow (-p.size);
  p

let dequeue t = if t.len = 0 then None else Some (dequeue_exn t)

let occupancy_bytes t = t.bytes

let occupancy_of_flow t flow =
  if flow >= 0 && flow < Array.length t.per_flow then t.per_flow.(flow)
  else 0

let occupancy_by_class t ~class_of_flow sums =
  Array.fill sums 0 (Array.length sums) 0;
  let n = min (Array.length t.per_flow) (Array.length class_of_flow) in
  for flow = 0 to n - 1 do
    let c = class_of_flow.(flow) in
    if c >= 0 then sums.(c) <- sums.(c) + t.per_flow.(flow)
  done

let length t = t.len
let is_empty t = t.len = 0
let drops t = t.drops
let early_drops t = t.early_drops

let average_queue_bytes t =
  match t.policy with
  | Tail_drop -> float_of_int t.bytes
  | Red _ -> t.avg_bytes

let dropped_bytes t = t.dropped_bytes
let enqueued_packets t = t.enqueued_packets
let enqueued_bytes t = t.enqueued_bytes
let set_drop_hook t f = t.drop_hook <- f
let drop_hook t = t.drop_hook
