(* Monotone-deque sliding extremum. Entries are (position, value) pairs kept
   in a ring of parallel float arrays, sorted so the front holds the current
   extremum. The arrays are grown geometrically and never shrunk, so steady
   state update/get allocate nothing — this sits on the per-ACK hot path of
   every BBR-family flow. *)

type deque = {
  mutable pos : float array;  (* ring, parallel to [value] *)
  mutable value : float array;
  mutable head : int;  (* index of the front (extremum) entry *)
  mutable len : int;
  window : float;
  is_max : bool;  (* max-filter when true, min-filter when false *)
}

let make_deque ~window ~is_max =
  {
    pos = Array.make 8 0.0;
    value = Array.make 8 0.0;
    head = 0;
    len = 0;
    window;
    is_max;
  }

(* [old_v] still dominates a new sample [v]: strictly better in the filter's
   direction. Ties are dropped in favour of the newer sample, matching the
   monotone-deque convention. The float annotations matter: without them
   the comparisons infer polymorphic, and every call boxes both floats to
   run generic compare. *)
let keeps d (old_v : float) (v : float) =
  if d.is_max then old_v > v else old_v < v

let[@simlint.alloc_ok "amortized geometric growth; arrays never shrink"] grow
    d =
  let cap = Array.length d.pos in
  let pos = Array.make (2 * cap) 0.0 in
  let value = Array.make (2 * cap) 0.0 in
  for i = 0 to d.len - 1 do
    let j = (d.head + i) land (cap - 1) in
    pos.(i) <- d.pos.(j);
    value.(i) <- d.value.(j)
  done;
  d.pos <- pos;
  d.value <- value;
  d.head <- 0

(* Inlined, like [get]: a float argument or result crossing a call boxes,
   and BBR updates and reads its bandwidth filter on every ACK. *)
let[@inline] deque_update d ~pos value =
  let mask = Array.length d.pos - 1 in
  (* Drop dominated entries from the back. *)
  while
    d.len > 0
    && not (keeps d d.value.((d.head + d.len - 1) land mask) value)
  do
    d.len <- d.len - 1
  done;
  if d.len = Array.length d.pos then grow d;
  let mask = Array.length d.pos - 1 in
  let back = (d.head + d.len) land mask in
  d.pos.(back) <- pos;
  d.value.(back) <- value;
  d.len <- d.len + 1;
  (* Expire entries older than the window from the front, always keeping at
     least one so [get] stays meaningful between sparse samples. *)
  while d.len > 1 && d.pos.(d.head) < pos -. d.window do
    d.head <- (d.head + 1) land mask;
    d.len <- d.len - 1
  done

let[@inline] front_value d ~default =
  if d.len = 0 then default else d.value.(d.head)
let front_pos d = d.pos.(d.head)

module Max_rounds = struct
  type t = { d : deque; mutable last_round : int }

  let create ~window =
    if window <= 0 then invalid_arg "Max_rounds.create: window";
    { d = make_deque ~window:(float_of_int window) ~is_max:true;
      last_round = min_int }

  let[@inline] update t ~round value =
    if round < t.last_round then
      invalid_arg "Max_rounds.update: decreasing round";
    t.last_round <- round;
    deque_update t.d ~pos:(float_of_int round) value

  let[@inline] get t = front_value t.d ~default:0.0
end

module Min_time = struct
  type t = { d : deque }

  let create ~window =
    if window <= 0.0 then invalid_arg "Min_time.create: window";
    { d = make_deque ~window ~is_max:false }

  let update t ~time value = deque_update t.d ~pos:time value
  let get t = front_value t.d ~default:infinity
  let age t ~now = if t.d.len = 0 then infinity else now -. front_pos t.d
  let expired t ~now = t.d.len = 0 || now -. front_pos t.d > t.d.window
end
