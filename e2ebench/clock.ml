(* Host clocks for the benchmark's own spans: a monotonic nanosecond
   counter (allocation-free, cheap enough to bracket every CCA call) and
   the measured cost of an empty span, which per-call layers subtract. *)

let[@inline] ns () = Int64.to_int (Monotonic_clock.now ())
let now_s () = float_of_int (ns ()) *. 1e-9

let time f =
  let t0 = now_s () in
  let v = f () in
  (v, now_s () -. t0)

(* Mean cost in ns of an empty [ns (); ns ()] bracket: what every timed
   call pays on top of the work it measures. *)
let empty_span_ns =
  lazy
    (let n = 200_000 in
     let acc = ref 0 in
     for _ = 1 to n do
       let t0 = ns () in
       acc := !acc + (ns () - t0)
     done;
     float_of_int !acc /. float_of_int n)
