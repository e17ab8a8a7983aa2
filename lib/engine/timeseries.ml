type t = {
  mutable times : float array;
  mutable values : float array;
  mutable length : int;
}

let create () =
  { times = Array.make 256 0.0; values = Array.make 256 0.0; length = 0 }

let grow t =
  let n = Array.length t.times in
  let times = Array.make (2 * n) 0.0 and values = Array.make (2 * n) 0.0 in
  Array.blit t.times 0 times 0 t.length;
  Array.blit t.values 0 values 0 t.length;
  t.times <- times;
  t.values <- values

let record t ~time v =
  if t.length > 0 && time < t.times.(t.length - 1) then
    invalid_arg "Timeseries.record: decreasing timestamp";
  if t.length = Array.length t.times then grow t;
  t.times.(t.length) <- time;
  t.values.(t.length) <- v;
  t.length <- t.length + 1

(* Every field is a float, so the record is stored flat and an update
   writes unboxed doubles. *)
module Window = struct
  type t = {
    from_ : float;
    until : float;
    mutable samples : float;  (* how many were added; a float keeps [t] flat *)
    mutable prev_t : float;  (* start of the open step, clamped to [from_] *)
    mutable prev_v : float;  (* its value *)
    mutable area : float;  (* integral over [from_, prev_t] *)
    mutable lo : float;
    mutable hi : float;
  }

  let create ~from_ ~until =
    {
      from_;
      until;
      samples = 0.0;
      prev_t = from_;
      prev_v = nan;
      area = 0.0;
      lo = nan;
      hi = nan;
    }

  (* The series is a right-continuous step function. Until the first
     sample inside (from_, until], the open step holds the last sample at
     or before [from_], or the first sample if none came that early. *)
  let[@inline] add w ~time v =
    if Stats.is_zero w.samples || time <= w.from_ then w.prev_v <- v;
    w.samples <- w.samples +. 1.0;
    if time > w.from_ && time <= w.until then begin
      w.area <- w.area +. (w.prev_v *. (time -. w.prev_t));
      w.prev_t <- time;
      w.prev_v <- v
    end;
    if time >= w.from_ then begin
      if Float.is_nan w.lo || v < w.lo then w.lo <- v;
      if Float.is_nan w.hi || v > w.hi then w.hi <- v
    end

  let mean w =
    if Stats.is_zero w.samples || w.until <= w.from_ then nan
    else (w.area +. (w.prev_v *. (w.until -. w.prev_t))) /. (w.until -. w.from_)

  let min w = w.lo
  let max w = w.hi
end

let window t ~from_ ~until =
  let w = Window.create ~from_ ~until in
  for i = 0 to t.length - 1 do
    Window.add w ~time:t.times.(i) t.values.(i)
  done;
  w

let time_weighted_mean t ~from_ ~until = Window.mean (window t ~from_ ~until)

let min_value t ?(from_ = neg_infinity) () =
  Window.min (window t ~from_ ~until:infinity)

let max_value t ?(from_ = neg_infinity) () =
  Window.max (window t ~from_ ~until:infinity)
