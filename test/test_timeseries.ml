open Sim_engine

let series points =
  let ts = Timeseries.create () in
  List.iter (fun (t, v) -> Timeseries.record ts ~time:t v) points;
  ts

let test_empty () =
  let ts = Timeseries.create () in
  Alcotest.(check bool) "no min" true
    (Float.is_nan (Timeseries.min_value ts ()));
  Alcotest.(check bool) "no max" true
    (Float.is_nan (Timeseries.max_value ts ()));
  Alcotest.(check bool) "nan twm" true
    (Float.is_nan (Timeseries.time_weighted_mean ts ~from_:0.0 ~until:1.0))

(* Both samples are kept, the later one last: it alone is at or after its
   time, and nothing comes after it. *)
let test_record_and_last () =
  let ts = series [ (1.0, 10.0); (2.0, 20.0) ] in
  Alcotest.(check (float 0.0)) "first kept" 10.0 (Timeseries.min_value ts ());
  Alcotest.(check (float 0.0)) "last v" 20.0
    (Timeseries.min_value ts ~from_:2.0 ());
  Alcotest.(check bool) "last t" true
    (Float.is_nan (Timeseries.min_value ts ~from_:(Float.succ 2.0) ()))

let test_decreasing_time_rejected () =
  let ts = series [ (2.0, 1.0) ] in
  Alcotest.check_raises "decreasing"
    (Invalid_argument "Timeseries.record: decreasing timestamp") (fun () ->
      Timeseries.record ts ~time:1.0 0.0)

let test_time_weighted_mean_step () =
  (* value 10 on [0,1), 20 on [1,2): mean over [0,2] = 15. *)
  let ts = series [ (0.0, 10.0); (1.0, 20.0) ] in
  Alcotest.(check (float 1e-9)) "step mean" 15.0
    (Timeseries.time_weighted_mean ts ~from_:0.0 ~until:2.0)

let test_time_weighted_mean_partial_window () =
  let ts = series [ (0.0, 10.0); (1.0, 20.0) ] in
  (* window [0.5, 1.5]: 0.5s of 10 and 0.5s of 20 *)
  Alcotest.(check (float 1e-9)) "partial window" 15.0
    (Timeseries.time_weighted_mean ts ~from_:0.5 ~until:1.5)

let test_time_weighted_mean_before_first () =
  (* Value before the first sample is the first sample's value. *)
  let ts = series [ (1.0, 4.0) ] in
  Alcotest.(check (float 1e-9)) "extends left" 4.0
    (Timeseries.time_weighted_mean ts ~from_:0.0 ~until:2.0)

(* Over unit-spaced samples, each holding for one second, the
   time-weighted mean is the unweighted one. *)
let test_unweighted_mean () =
  let ts = series [ (0.0, 1.0); (1.0, 2.0); (2.0, 6.0) ] in
  Alcotest.(check (float 1e-9)) "mean" 3.0
    (Timeseries.time_weighted_mean ts ~from_:0.0 ~until:3.0)

let test_min_max () =
  let ts = series [ (0.0, 5.0); (1.0, 1.0); (2.0, 9.0) ] in
  Alcotest.(check (float 0.0)) "min" 1.0 (Timeseries.min_value ts ());
  Alcotest.(check (float 0.0)) "max" 9.0 (Timeseries.max_value ts ());
  Alcotest.(check (float 0.0)) "min from 1.5" 9.0
    (Timeseries.min_value ts ~from_:1.5 ());
  Alcotest.(check bool) "empty window nan" true
    (Float.is_nan (Timeseries.min_value ts ~from_:3.0 ()))

(* The samples read back in order, each from its own time on, and their
   sum is the integral over [0, 2] of the step each holds for one second. *)
let test_fold_and_to_list () =
  let ts = series [ (0.0, 1.0); (1.0, 2.0) ] in
  Alcotest.(check (list (float 0.0))) "in order" [ 1.0; 2.0 ]
    (List.map (fun from_ -> Timeseries.min_value ts ~from_ ()) [ 0.0; 1.0 ]);
  Alcotest.(check (float 0.0)) "sum" 3.0
    (2.0 *. Timeseries.time_weighted_mean ts ~from_:0.0 ~until:2.0)

(* Every sample survives the arrays' growth, the first and the last
   included. *)
let test_growth () =
  let ts = Timeseries.create () in
  for i = 0 to 9999 do
    Timeseries.record ts ~time:(float_of_int i) (float_of_int i)
  done;
  Alcotest.(check (float 0.0)) "first" 0.0 (Timeseries.min_value ts ());
  Alcotest.(check (float 0.0)) "last" 9999.0 (Timeseries.max_value ts ());
  Alcotest.(check (float 1e-9)) "10k samples" 4999.5
    (Timeseries.time_weighted_mean ts ~from_:0.0 ~until:10000.0)

let prop_constant_series_mean =
  QCheck.Test.make ~name:"constant series has constant twm" ~count:100
    QCheck.(pair (float_range (-5.0) 5.0) (int_range 1 50))
    (fun (v, n) ->
      let ts = Timeseries.create () in
      for i = 0 to n - 1 do
        Timeseries.record ts ~time:(float_of_int i) v
      done;
      let m =
        Timeseries.time_weighted_mean ts ~from_:0.0 ~until:(float_of_int n)
      in
      Float.abs (m -. v) < 1e-9)

(* --- Window: the running statistics against the loops it replaced --- *)

(* The stored-series loops [Timeseries.Window] replaced, kept as the
   reference it must match bit for bit. *)
let reference_mean times values ~from_ ~until =
  let n = Array.length times in
  if n = 0 || until <= from_ then nan
  else begin
    let total = ref 0.0 in
    let value_at_start = ref values.(0) in
    for i = 0 to n - 1 do
      if times.(i) <= from_ then value_at_start := values.(i)
    done;
    let prev_t = ref from_ and prev_v = ref !value_at_start in
    for i = 0 to n - 1 do
      let ti = times.(i) in
      if ti > from_ && ti <= until then begin
        total := !total +. (!prev_v *. (ti -. !prev_t));
        prev_t := ti;
        prev_v := values.(i)
      end
    done;
    total := !total +. (!prev_v *. (until -. !prev_t));
    !total /. (until -. from_)
  end

let reference_extremum times values ~from_ ~better =
  let best = ref nan in
  for i = 0 to Array.length times - 1 do
    if times.(i) >= from_ then
      if Float.is_nan !best || better values.(i) !best then
        best := values.(i)
  done;
  !best

let same_bits a b =
  (Float.is_nan a && Float.is_nan b)
  || Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* Whether a Window fed [points], and the stored-series functions over
   them, agree bit for bit with the reference on mean, min and max. *)
let agrees points ~from_ ~until =
  let times = Array.of_list (List.map fst points)
  and values = Array.of_list (List.map snd points) in
  let w = Timeseries.Window.create ~from_ ~until in
  List.iter (fun (time, v) -> Timeseries.Window.add w ~time v) points;
  let ts = series points in
  let mean = reference_mean times values ~from_ ~until
  and lo = reference_extremum times values ~from_ ~better:( < )
  and hi = reference_extremum times values ~from_ ~better:( > ) in
  same_bits mean (Timeseries.Window.mean w)
  && same_bits lo (Timeseries.Window.min w)
  && same_bits hi (Timeseries.Window.max w)
  && same_bits mean (Timeseries.time_weighted_mean ts ~from_ ~until)
  && same_bits lo (Timeseries.min_value ts ~from_ ())
  && same_bits hi (Timeseries.max_value ts ~from_ ())

let stats points ~from_ ~until =
  let w = Timeseries.Window.create ~from_ ~until in
  List.iter (fun (time, v) -> Timeseries.Window.add w ~time v) points;
  Timeseries.Window.(mean w, min w, max w)

let test_window_cases () =
  let check name points ~from_ ~until (mean, lo, hi) =
    Alcotest.(check bool) (name ^ ": matches the loops") true
      (agrees points ~from_ ~until);
    let m, l, h = stats points ~from_ ~until in
    Alcotest.(check (list (float 1e-12))) name [ mean; lo; hi ] [ m; l; h ]
  in
  (* The sample at [from_] opens the window; the one at [until] closes a
     step and adds nothing of its own. *)
  check "samples at from_ and until"
    [ (0.0, 9.0); (1.0, 2.0); (2.0, 4.0); (3.0, 8.0) ]
    ~from_:1.0 ~until:3.0 (3.0, 2.0, 8.0);
  check "first sample after from_" [ (2.0, 4.0); (3.0, 6.0) ] ~from_:0.0
    ~until:4.0 (4.5, 4.0, 6.0);
  check "no sample inside the window" [ (0.0, 5.0); (10.0, 7.0) ] ~from_:2.0
    ~until:4.0 (5.0, 7.0, 7.0);
  check "only samples past until" [ (10.0, 7.0) ] ~from_:2.0 ~until:4.0
    (7.0, 7.0, 7.0);
  check "samples past until" [ (0.0, 1.0); (1.0, 2.0); (5.0, 100.0) ]
    ~from_:0.0 ~until:2.0 (1.5, 1.0, 100.0);
  (* The closing segment is still taken, from a sample at [until]: an
     infinite value there makes it [inf *. 0.0], so the mean is nan. *)
  let points = [ (0.0, 1.0); (2.0, infinity) ] in
  let mean, _, _ = stats points ~from_:0.0 ~until:2.0 in
  Alcotest.(check bool) "infinite sample at until" true
    (agrees points ~from_:0.0 ~until:2.0 && Float.is_nan mean);
  List.iter
    (fun (from_, until) ->
      let points = [ (0.0, 1.0); (5.0, 2.0) ] in
      let mean, _, _ = stats points ~from_ ~until in
      Alcotest.(check bool) "until <= from_: nan" true
        (agrees points ~from_ ~until && Float.is_nan mean))
    [ (2.0, 2.0); (3.0, 1.0) ];
  let mean, lo, hi = stats [] ~from_:0.0 ~until:1.0 in
  Alcotest.(check bool) "no samples: nan" true
    (agrees [] ~from_:0.0 ~until:1.0
    && List.for_all Float.is_nan [ mean; lo; hi ])

(* Non-decreasing streams whose times sit on a 0.25 grid, often repeated,
   or between grid points; windows on the same grid, so samples land
   exactly on [from_] and [until], and some windows are empty. A few
   values are infinite or NaN, whose products tell apart orders of
   operations that agree on finite values. *)
let prop_window_matches_loops =
  let open QCheck in
  let step =
    Gen.(
      oneof
        [
          map (fun k -> 0.25 *. float_of_int k) (int_range 0 3);
          float_range 0.0 1.0;
        ])
  in
  let value =
    Gen.(
      frequency
        [ (20, float_range (-1e3) 1e3); (1, return infinity); (1, return nan) ])
  in
  let gen =
    Gen.(
      triple
        (list_size (int_range 0 40) (pair step value))
        (int_range (-4) 40) (int_range (-4) 40))
  in
  let points steps =
    snd
      (List.fold_left_map
         (fun now (dt, v) -> (now +. dt, (now +. dt, v)))
         0.0 steps)
  in
  Test.make ~name:"window matches the stored-series loops" ~count:500
    (make gen) (fun (steps, a, b) ->
      agrees (points steps) ~from_:(0.25 *. float_of_int a)
        ~until:(0.25 *. float_of_int b))

let tests =
  [
    Alcotest.test_case "empty" `Quick test_empty;
    Alcotest.test_case "record and last" `Quick test_record_and_last;
    Alcotest.test_case "decreasing time" `Quick test_decreasing_time_rejected;
    Alcotest.test_case "time-weighted mean" `Quick test_time_weighted_mean_step;
    Alcotest.test_case "partial window" `Quick
      test_time_weighted_mean_partial_window;
    Alcotest.test_case "before first sample" `Quick
      test_time_weighted_mean_before_first;
    Alcotest.test_case "unweighted mean" `Quick test_unweighted_mean;
    Alcotest.test_case "min/max with from" `Quick test_min_max;
    Alcotest.test_case "fold and to_list" `Quick test_fold_and_to_list;
    Alcotest.test_case "array growth" `Quick test_growth;
    QCheck_alcotest.to_alcotest prop_constant_series_mean;
    Alcotest.test_case "window cases" `Quick test_window_cases;
    QCheck_alcotest.to_alcotest prop_window_matches_loops;
  ]
