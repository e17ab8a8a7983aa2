type t = {
  now : float array;
      (* Singleton cell: [now] is stored on every event fire, and a float
         array write does not box, unlike a mutable float field of a mixed
         record. *)
  queue : Event_queue.t;
  root_rng : Rng.t;
  mutable lanes : Lane.view array;
  mutable n_lanes : int;
  (* Merge-loop scratch, hoisted here so the loop allocates nothing.
     [best_time] is a singleton float array: float-array writes don't
     box, unlike writes to a mutable float field of a mixed record. *)
  best_time : float array;
  mutable best_seq : int;
  mutable best_lane : int;
}

type handle = Event_queue.handle
type 'a lane = 'a Lane.t

let create ?(seed = 42) () =
  {
    now = [| 0.0 |];
    queue = Event_queue.create ();
    root_rng = Rng.create seed;
    lanes = [||];
    n_lanes = 0;
    best_time = [| infinity |];
    best_seq = max_int;
    best_lane = -1;
  }

let now t = t.now.(0)
let rng t = t.root_rng

let schedule_at t ~time f =
  if not (time >= t.now.(0)) then
    invalid_arg
      (Printf.sprintf "Sim.schedule_at: time %g is before now %g" time
         t.now.(0));
  Event_queue.add t.queue ~time f

let schedule t ~delay f =
  if not (delay >= 0.0) then invalid_arg "Sim.schedule: negative delay";
  schedule_at t ~time:(t.now.(0) +. delay) f

let cancel t h = Event_queue.cancel t.queue h

(* A resettable timer keeps at most one heap entry. [set] always draws the
   expiry's seq, exactly as a cancel-then-[schedule] would, but keeps an
   entry that is due no later than the new deadline: when that entry comes
   due it re-inserts itself at the recorded (deadline, seq) instead of
   running the action. An RTO re-armed on every ACK therefore touches the
   heap about once per timeout interval, not once per ACK, and the action
   still runs at the same (time, seq) as under the eager scheme. *)
module Timer = struct
  type sim = t

  (* All-float, so stored flat: re-arming writes unboxed doubles. *)
  type times = { mutable deadline : float; mutable entry_time : float }

  type t = {
    sim : sim;
    action : unit -> unit;
    times : times;
    mutable seq : int;  (* seq of the pending expiry; -1 when not set *)
    mutable entry : Event_queue.handle;  (* the heap entry, if any *)
    mutable entry_seq : int;
    on_due : unit -> unit;  (* the entry's callback, allocated once *)
  }

  let insert tm =
    tm.entry <-
      Event_queue.add_seq tm.sim.queue ~time:tm.times.deadline ~seq:tm.seq
        tm.on_due;
    tm.times.entry_time <- tm.times.deadline;
    tm.entry_seq <- tm.seq

  let fire tm =
    tm.entry <- Event_queue.none;
    if tm.entry_seq = tm.seq then begin
      tm.seq <- -1;
      tm.action ()
    end
    else insert tm

  let create sim action =
    let rec tm =
      {
        sim;
        action;
        times = { deadline = infinity; entry_time = infinity };
        seq = -1;
        entry = Event_queue.none;
        entry_seq = -1;
        on_due = (fun () -> fire tm);
      }
    in
    tm

  let set tm ~delay =
    if not (delay >= 0.0) then invalid_arg "Sim.Timer.set: negative delay";
    tm.times.deadline <- tm.sim.now.(0) +. delay;
    tm.seq <- Event_queue.take_seq tm.sim.queue;
    if Event_queue.is_none tm.entry then insert tm
    else if tm.times.entry_time > tm.times.deadline then begin
      Event_queue.cancel tm.sim.queue tm.entry;
      insert tm
    end

  let stop tm =
    tm.seq <- -1;
    if not (Event_queue.is_none tm.entry) then begin
      Event_queue.cancel tm.sim.queue tm.entry;
      tm.entry <- Event_queue.none
    end

  let is_set tm = tm.seq >= 0
end

let lane t ~dummy ~deliver =
  let l = Lane.create ~dummy ~deliver in
  let v = Lane.view l in
  if t.n_lanes = Array.length t.lanes then begin
    let cap = max 4 (2 * Array.length t.lanes) in
    let lanes = Array.make cap v in
    Array.blit t.lanes 0 lanes 0 t.n_lanes;
    t.lanes <- lanes
  end;
  t.lanes.(t.n_lanes) <- v;
  t.n_lanes <- t.n_lanes + 1;
  l

let schedule_packet t l ~delay x =
  if not (delay >= 0.0) then
    invalid_arg "Sim.schedule_packet: negative delay";
  let time = t.now.(0) +. delay in
  if Lane.can_accept l ~time then
    Lane.push l ~time ~seq:(Event_queue.take_seq t.queue) x
  else
    (* Out-of-FIFO delivery (e.g. a delay function that varies per
       packet): fall back to the heap. Ordering stays global (time, seq)
       either way; only the allocation profile differs. *)
    ignore
      (Event_queue.add t.queue ~time
         ((fun () -> Lane.apply l x)
         [@simlint.alloc_ok
           "heap fallback for out-of-FIFO delivery; the lane fast path \
            builds no closure"]))

(* One N-way merge step: find the earliest (time, seq) among the heap head
   and every lane head, leaving the choice in [best_time]/[best_seq]/
   [best_lane] ([best_lane] = -1 for the heap). *)
let select t =
  let q = t.queue in
  Event_queue.settle q;
  if Event_queue.heap_length q = 0 then begin
    t.best_time.(0) <- infinity;
    t.best_seq <- max_int
  end
  else begin
    t.best_time.(0) <- Event_queue.head_time_unsafe q;
    t.best_seq <- Event_queue.head_seq_unsafe q
  end;
  t.best_lane <- -1;
  for i = 0 to t.n_lanes - 1 do
    let v = t.lanes.(i) in
    let vt = v.Lane.head_time.(0) in
    if
      vt < t.best_time.(0)
      || (vt = t.best_time.(0) && v.Lane.head_seq < t.best_seq)
    then begin
      t.best_time.(0) <- vt;
      t.best_seq <- v.Lane.head_seq;
      t.best_lane <- i
    end
  done

let run ?until t =
  let limit = match until with Some l -> l | None -> infinity in
  let continue = ref true in
  while !continue do
    select t;
    let time = t.best_time.(0) in
    if time = infinity then continue := false
    else if time > limit then begin
      t.now.(0) <- limit;
      continue := false
    end
    else begin
      t.now.(0) <- time;
      if t.best_lane >= 0 then t.lanes.(t.best_lane).Lane.fire ()
      else (Event_queue.take_head t.queue) ()
    end
  done;
  match until with
  | Some limit when t.now.(0) < limit -> t.now.(0) <- limit
  | Some _ | None -> ()

let pending_events t =
  let n = ref (Event_queue.size t.queue) in
  for i = 0 to t.n_lanes - 1 do
    n := !n + t.lanes.(i).Lane.queued
  done;
  !n

let lane_count t = t.n_lanes
