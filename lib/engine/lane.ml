(* A calendar lane: a ring-buffered FIFO of timestamped deliveries.

   Network elements with per-packet constant delay (a propagation pipe, a
   serializing link, a fixed reverse path) deliver in send order, so their
   events don't need a heap at all: the lane keeps them in a ring and the
   simulator merges only the lane *head* with the heap. This shrinks the
   heap from O(packets in flight) to O(lanes + timers). Payloads are ints,
   so a push/pop cycle allocates nothing and stores no heap pointer.

   Every entry still carries the global (time, seq) pair, so the merged
   schedule is bit-for-bit the order a single heap would have produced. *)

type heads = { mutable head_time : float array; mutable head_seq : int array }

type t = {
  id : int;
  heads : heads;
  deliver : int -> unit;
  mutable times : float array;
  mutable seqs : int array;
  mutable items : int array;
  mutable head : int;
  mutable len : int;
}

let initial = 16

let mark_empty t =
  t.heads.head_time.(t.id) <- infinity;
  t.heads.head_seq.(t.id) <- max_int

let fire_head t =
  let cap = Array.length t.times in
  let h = t.head in
  let x = t.items.(h) in
  let h = if h + 1 = cap then 0 else h + 1 in
  t.head <- h;
  t.len <- t.len - 1;
  if t.len = 0 then mark_empty t
  else begin
    t.heads.head_time.(t.id) <- t.times.(h);
    t.heads.head_seq.(t.id) <- t.seqs.(h)
  end;
  (* Deliver after the pop so the callback can push new entries. *)
  t.deliver x

let create ~heads ~id ~deliver =
  let t =
    {
      id;
      heads;
      deliver;
      times = Array.make initial infinity;
      seqs = Array.make initial 0;
      items = Array.make initial 0;
      head = 0;
      len = 0;
    }
  in
  mark_empty t;
  t

let length t = t.len

let[@simlint.alloc_ok "amortized geometric growth; lanes never shrink"]
    grow t =
  let cap = Array.length t.times in
  let cap' = 2 * cap in
  let times = Array.make cap' infinity in
  let seqs = Array.make cap' 0 in
  let items = Array.make cap' 0 in
  for i = 0 to t.len - 1 do
    let j = (t.head + i) mod cap in
    times.(i) <- t.times.(j);
    seqs.(i) <- t.seqs.(j);
    items.(i) <- t.items.(j)
  done;
  t.times <- times;
  t.seqs <- seqs;
  t.items <- items;
  t.head <- 0

(* Inlined, like [can_accept] and [push]: a float crossing a call boxes. *)
let[@inline] tail_time t =
  let cap = Array.length t.times in
  let last = t.head + t.len - 1 in
  t.times.(if last >= cap then last - cap else last)

let[@inline] can_accept t ~time = t.len = 0 || time >= tail_time t

let[@inline] push t ~time ~seq x =
  if Float.is_nan time then invalid_arg "Lane.push: NaN time";
  if t.len > 0 && time < tail_time t then
    invalid_arg "Lane.push: time before lane tail (FIFO violation)";
  if t.len = Array.length t.times then grow t;
  let cap = Array.length t.times in
  let tail = t.head + t.len in
  let tail = if tail >= cap then tail - cap else tail in
  t.times.(tail) <- time;
  t.seqs.(tail) <- seq;
  t.items.(tail) <- x;
  t.len <- t.len + 1;
  if t.len = 1 then begin
    t.heads.head_time.(t.id) <- time;
    t.heads.head_seq.(t.id) <- seq
  end

let apply t x = t.deliver x
