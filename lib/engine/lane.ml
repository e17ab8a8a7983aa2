(* A calendar lane: a ring-buffered FIFO of timestamped deliveries.

   Network elements with per-packet constant delay (a propagation pipe, a
   serializing link, a fixed reverse path) deliver in send order, so their
   events don't need a heap at all: the lane keeps them in a ring and the
   simulator merges only the lane *head* with the heap. This shrinks the
   heap from O(packets in flight) to O(lanes + timers), and a push/pop
   cycle allocates nothing — the payload is stored in the ring, not
   captured in a closure.

   Every entry still carries the global (time, seq) pair, so the merged
   schedule is bit-for-bit the order a single heap would have produced. *)

type view = {
  head_time : float array;
      (* Singleton cell (a float array write does not box); [infinity]
         when the lane is empty. *)
  mutable head_seq : int;
  mutable queued : int;
  mutable fire : unit -> unit;
}

type 'a t = {
  deliver : 'a -> unit;
  dummy : 'a;
  mutable times : float array;
  mutable seqs : int array;
  mutable items : 'a array;
  mutable head : int;
  mutable len : int;
  view : view;
}

let initial = 16

let refresh_view t =
  let v = t.view in
  v.queued <- t.len;
  if t.len = 0 then begin
    v.head_time.(0) <- infinity;
    v.head_seq <- max_int
  end
  else begin
    v.head_time.(0) <- t.times.(t.head);
    v.head_seq <- t.seqs.(t.head)
  end

let fire_head t =
  let cap = Array.length t.times in
  let h = t.head in
  (* The vacated cell keeps its payload until a push overwrites it:
     clearing it would cost a write barrier per pop. *)
  let x = t.items.(h) in
  t.head <- (if h + 1 = cap then 0 else h + 1);
  t.len <- t.len - 1;
  refresh_view t;
  (* Deliver after the pop so the callback can push new entries. *)
  t.deliver x

let create ~dummy ~deliver =
  let view =
    { head_time = [| infinity |]; head_seq = max_int; queued = 0;
      fire = ignore }
  in
  let t =
    {
      deliver;
      dummy;
      times = Array.make initial infinity;
      seqs = Array.make initial 0;
      items = Array.make initial dummy;
      head = 0;
      len = 0;
      view;
    }
  in
  view.fire <- (fun () -> fire_head t);
  t

let view t = t.view
let length t = t.len

let[@simlint.alloc_ok "amortized geometric growth; lanes never shrink"]
    grow t =
  let cap = Array.length t.times in
  let cap' = 2 * cap in
  let times = Array.make cap' infinity in
  let seqs = Array.make cap' 0 in
  let items = Array.make cap' t.dummy in
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

let tail_time t =
  let cap = Array.length t.times in
  let last = t.head + t.len - 1 in
  t.times.(if last >= cap then last - cap else last)

let can_accept t ~time = t.len = 0 || time >= tail_time t

let push t ~time ~seq x =
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
  let v = t.view in
  v.queued <- t.len;
  if t.len = 1 then begin
    v.head_time.(0) <- time;
    v.head_seq <- seq
  end

let apply t x = t.deliver x
