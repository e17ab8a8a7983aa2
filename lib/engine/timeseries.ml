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
