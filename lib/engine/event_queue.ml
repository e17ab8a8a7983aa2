(* Pooled struct-of-arrays binary heap.

   The heap itself is three parallel arrays (time, seq, slot) so pushing
   and popping move immediates only; callbacks live in a slot pool with a
   free-list, so steady-state scheduling allocates nothing. A handle is an
   immediate int packing (stamp, slot): the stamp is bumped every time a
   slot is recycled, which makes stale handles (events that already fired)
   inert — cancelling one is a no-op, exactly like the previous
   record-based representation.

   Lazy deletion is bounded: a cancelled-entry count is maintained
   incrementally (making [size] O(1)) and the heap compacts in place when
   cancelled entries outnumber live ones. *)

type t = {
  (* Heap entries: parallel arrays indexed by heap position. *)
  mutable times : float array;
  mutable seqs : int array;
  mutable slots : int array;
  mutable length : int;
  mutable next_seq : int;
  mutable cancelled : int;  (* cancelled entries still inside the heap *)
  (* Callback pool: parallel arrays indexed by slot id. *)
  mutable cbs : (unit -> unit) array;
  mutable stamps : int array;
  mutable states : int array;
  mutable free : int array;  (* stack of free slot ids *)
  mutable free_len : int;
}

type handle = int

let none : handle = -1
let is_none (h : handle) = h < 0

let st_free = 0
let st_queued = 1
let st_cancelled = 2

(* Handle layout: slot in the low 32 bits, recycle stamp above it. The
   stamp wraps at 2^30, so a stale handle could only alias a live event
   after a slot is recycled ~10^9 times while the handle is retained. *)
let slot_bits = 32
let slot_mask = (1 lsl slot_bits) - 1
let stamp_mask = (1 lsl 30) - 1

let nop () = ()
let initial = 64

let create () =
  {
    times = Array.make initial 0.0;
    seqs = Array.make initial 0;
    slots = Array.make initial 0;
    length = 0;
    next_seq = 0;
    cancelled = 0;
    cbs = Array.make initial nop;
    stamps = Array.make initial 0;
    states = Array.make initial st_free;
    (* Popped top-down so low slot ids are handed out first. *)
    free = Array.init initial (fun i -> initial - 1 - i);
    free_len = initial;
  }

(* ---------- slot pool ---------- *)

let[@simlint.alloc_ok "amortized geometric growth; the pool never shrinks"]
    grow_pool t =
  let old = Array.length t.cbs in
  let cap = 2 * old in
  let cbs = Array.make cap nop in
  Array.blit t.cbs 0 cbs 0 old;
  t.cbs <- cbs;
  let stamps = Array.make cap 0 in
  Array.blit t.stamps 0 stamps 0 old;
  t.stamps <- stamps;
  let states = Array.make cap st_free in
  Array.blit t.states 0 states 0 old;
  t.states <- states;
  let free = Array.make cap 0 in
  Array.blit t.free 0 free 0 t.free_len;
  t.free <- free;
  for slot = cap - 1 downto old do
    t.free.(t.free_len) <- slot;
    t.free_len <- t.free_len + 1
  done

let alloc_slot t =
  if t.free_len = 0 then grow_pool t;
  t.free_len <- t.free_len - 1;
  t.free.(t.free_len)

let release_slot t slot =
  t.states.(slot) <- st_free;
  t.stamps.(slot) <- (t.stamps.(slot) + 1) land stamp_mask;
  t.cbs.(slot) <- nop;
  t.free.(t.free_len) <- slot;
  t.free_len <- t.free_len + 1

(* ---------- heap ---------- *)

let earlier t i j =
  let ti = t.times.(i) and tj = t.times.(j) in
  ti < tj || (ti = tj && t.seqs.(i) < t.seqs.(j))

let swap t i j =
  let time = t.times.(i) in
  t.times.(i) <- t.times.(j);
  t.times.(j) <- time;
  let seq = t.seqs.(i) in
  t.seqs.(i) <- t.seqs.(j);
  t.seqs.(j) <- seq;
  let slot = t.slots.(i) in
  t.slots.(i) <- t.slots.(j);
  t.slots.(j) <- slot

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if earlier t i parent then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let left = (2 * i) + 1 and right = (2 * i) + 2 in
  let smallest = ref i in
  if left < t.length && earlier t left !smallest then smallest := left;
  if right < t.length && earlier t right !smallest then smallest := right;
  if !smallest <> i then begin
    swap t i !smallest;
    sift_down t !smallest
  end

let[@simlint.alloc_ok "amortized geometric growth; the heap never shrinks"]
    grow_heap t =
  let old = Array.length t.times in
  let cap = 2 * old in
  let times = Array.make cap 0.0 in
  Array.blit t.times 0 times 0 old;
  t.times <- times;
  let seqs = Array.make cap 0 in
  Array.blit t.seqs 0 seqs 0 old;
  t.seqs <- seqs;
  let slots = Array.make cap 0 in
  Array.blit t.slots 0 slots 0 old;
  t.slots <- slots

let remove_root t =
  let last = t.length - 1 in
  t.times.(0) <- t.times.(last);
  t.seqs.(0) <- t.seqs.(last);
  t.slots.(0) <- t.slots.(last);
  t.length <- last;
  if last > 0 then sift_down t 0

(* Compaction: drop every cancelled entry in one pass and re-heapify
   bottom-up, bounding lazy-delete bloat at 2x the live size. Relative
   (time, seq) order of live events is untouched. *)
let compact t =
  let j = ref 0 in
  for i = 0 to t.length - 1 do
    let slot = t.slots.(i) in
    if t.states.(slot) = st_cancelled then release_slot t slot
    else begin
      t.times.(!j) <- t.times.(i);
      t.seqs.(!j) <- t.seqs.(i);
      t.slots.(!j) <- t.slots.(i);
      incr j
    end
  done;
  t.length <- !j;
  t.cancelled <- 0;
  for i = (t.length / 2) - 1 downto 0 do
    sift_down t i
  done

(* ---------- public API ---------- *)

let take_seq t =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  seq

(* [add_seq] and [add] are inlined: a [time] passed to a call would be
   boxed at every insert. *)
let[@inline] add_seq t ~time ~seq action =
  if Float.is_nan time then invalid_arg "Event_queue.add: NaN time";
  if t.length = Array.length t.times then grow_heap t;
  let slot = alloc_slot t in
  t.cbs.(slot) <- action;
  t.states.(slot) <- st_queued;
  let i = t.length in
  t.times.(i) <- time;
  t.seqs.(i) <- seq;
  t.slots.(i) <- slot;
  t.length <- i + 1;
  sift_up t i;
  (t.stamps.(slot) lsl slot_bits) lor slot

let[@inline] add t ~time action = add_seq t ~time ~seq:(take_seq t) action

let cancel t (h : handle) =
  if h >= 0 then begin
    let slot = h land slot_mask in
    if
      slot < Array.length t.stamps
      && t.stamps.(slot) = h lsr slot_bits
      && t.states.(slot) = st_queued
    then begin
      t.states.(slot) <- st_cancelled;
      t.cancelled <- t.cancelled + 1;
      if t.cancelled > t.length / 2 && t.length >= initial then compact t
    end
  end

let is_cancelled t (h : handle) =
  h < 0
  ||
  let slot = h land slot_mask in
  slot >= Array.length t.stamps
  || t.stamps.(slot) <> h lsr slot_bits
  || t.states.(slot) = st_cancelled

(* Drop cancelled entries from the top so the head is live. *)
let rec settle t =
  if t.length > 0 then begin
    let slot = t.slots.(0) in
    if t.states.(slot) = st_cancelled then begin
      t.cancelled <- t.cancelled - 1;
      release_slot t slot;
      remove_root t;
      settle t
    end
  end

let heap_length t = t.length
let head_time_unsafe t = t.times.(0)
let head_seq_unsafe t = t.seqs.(0)

let take_head t =
  let slot = t.slots.(0) in
  let action = t.cbs.(slot) in
  release_slot t slot;
  remove_root t;
  action

let[@simlint.alloc_ok
     "option-returning convenience API; the zero-alloc drive loop uses \
      settle/head_time_unsafe/take_head"] pop t =
  settle t;
  if t.length = 0 then None
  else begin
    let time = t.times.(0) in
    Some (time, take_head t)
  end

let peek_time t =
  settle t;
  if t.length = 0 then None else Some t.times.(0)

let size t = t.length - t.cancelled
let is_empty t = size t = 0
