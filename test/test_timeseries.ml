open Sim_engine
module Window = Timeseries.Window

(* A window over [\[from_, until\]] fed [points] in order. *)
let window points ~from_ ~until =
  let w = Window.create ~from_ ~until in
  List.iter (fun (time, v) -> Window.add w ~time v) points;
  w

let test_empty () =
  let w = window [] ~from_:0.0 ~until:1.0 in
  Alcotest.(check bool) "no min" true (Float.is_nan (Window.min w));
  Alcotest.(check bool) "no max" true (Float.is_nan (Window.max w));
  Alcotest.(check bool) "nan twm" true (Float.is_nan (Window.mean w))

(* The minimum from a time on sees the samples at or after it: both
   samples from 0, the later one alone from its time, none after it. *)
let test_record_and_last () =
  let min_from from_ =
    Window.min (window [ (1.0, 10.0); (2.0, 20.0) ] ~from_ ~until:infinity)
  in
  Alcotest.(check (float 0.0)) "first kept" 10.0 (min_from 0.0);
  Alcotest.(check (float 0.0)) "last v" 20.0 (min_from 2.0);
  Alcotest.(check bool) "last t" true
    (Float.is_nan (min_from (Float.succ 2.0)))

let test_time_weighted_mean_step () =
  (* value 10 on [0,1), 20 on [1,2): mean over [0,2] = 15. *)
  Alcotest.(check (float 1e-9)) "step mean" 15.0
    (Window.mean (window [ (0.0, 10.0); (1.0, 20.0) ] ~from_:0.0 ~until:2.0))

(* Over unit-spaced samples, each holding for one second, the
   time-weighted mean is the unweighted one. *)
let test_unweighted_mean () =
  Alcotest.(check (float 1e-9)) "mean" 3.0
    (Window.mean
       (window [ (0.0, 1.0); (1.0, 2.0); (2.0, 6.0) ] ~from_:0.0 ~until:3.0))

(* The samples read back in order, each from its own time on, and their
   sum is the integral over [0, 2] of the step each holds for one second. *)
let test_fold_and_to_list () =
  let points = [ (0.0, 1.0); (1.0, 2.0) ] in
  Alcotest.(check (list (float 0.0))) "in order" [ 1.0; 2.0 ]
    (List.map
       (fun from_ -> Window.min (window points ~from_ ~until:infinity))
       [ 0.0; 1.0 ]);
  Alcotest.(check (float 0.0)) "sum" 3.0
    (2.0 *. Window.mean (window points ~from_:0.0 ~until:2.0))

(* --- Window: the running statistics against the loops it replaced --- *)

(* Loops over the stored samples, the way the statistics were computed
   before [Timeseries.Window]: the reference it must match bit for bit. *)
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

(* Whether a Window fed [points] agrees bit for bit with the reference on
   mean, min and max. *)
let agrees points ~from_ ~until =
  let times = Array.of_list (List.map fst points)
  and values = Array.of_list (List.map snd points) in
  let w = window points ~from_ ~until in
  same_bits (reference_mean times values ~from_ ~until) (Window.mean w)
  && same_bits (reference_extremum times values ~from_ ~better:( < ))
       (Window.min w)
  && same_bits (reference_extremum times values ~from_ ~better:( > ))
       (Window.max w)

let stats points ~from_ ~until =
  let w = window points ~from_ ~until in
  Window.(mean w, min w, max w)

(* Checks a Window fed [points] bit for bit against the reference loops,
   and its mean, min and max against the expected triple. *)
let check_window name points ~from_ ~until (mean, lo, hi) =
  Alcotest.(check bool) (name ^ ": matches the loops") true
    (agrees points ~from_ ~until);
  let m, l, h = stats points ~from_ ~until in
  Alcotest.(check (list (float 1e-12))) name [ mean; lo; hi ] [ m; l; h ]

(* Half a second of each step; only the later sample is at or after
   [from_]. *)
let test_partial_window () =
  check_window "partial window" [ (0.0, 10.0); (1.0, 20.0) ] ~from_:0.5
    ~until:1.5 (15.0, 20.0, 20.0)

(* The value before the first sample is the first sample's value. *)
let test_before_first_sample () =
  check_window "extends left" [ (1.0, 4.0) ] ~from_:0.0 ~until:2.0
    (4.0, 4.0, 4.0)

(* Min and max see the samples at or after [from_]: all of them from 0,
   the last alone from 1.5, none past it. *)
let test_min_max () =
  let points = [ (0.0, 5.0); (1.0, 1.0); (2.0, 9.0) ] in
  check_window "min/max" points ~from_:0.0 ~until:3.0 (5.0, 1.0, 9.0);
  check_window "min from 1.5" points ~from_:1.5 ~until:3.0
    (9.5 /. 1.5, 9.0, 9.0);
  check_window "empty window nan" points ~from_:3.0 ~until:4.0 (9.0, nan, nan)

let prop_constant_series_mean =
  QCheck.Test.make ~name:"constant series has constant twm" ~count:100
    QCheck.(pair (float_range (-5.0) 5.0) (int_range 1 50))
    (fun (v, n) ->
      let points = List.init n (fun i -> (float_of_int i, v)) in
      let until = float_of_int n in
      agrees points ~from_:0.0 ~until
      && Float.abs (Window.mean (window points ~from_:0.0 ~until) -. v) < 1e-9)

let test_window_cases () =
  (* The sample at [from_] opens the window; the one at [until] closes a
     step and adds nothing of its own. *)
  check_window "samples at from_ and until"
    [ (0.0, 9.0); (1.0, 2.0); (2.0, 4.0); (3.0, 8.0) ]
    ~from_:1.0 ~until:3.0 (3.0, 2.0, 8.0);
  check_window "first sample after from_" [ (2.0, 4.0); (3.0, 6.0) ]
    ~from_:0.0 ~until:4.0 (4.5, 4.0, 6.0);
  check_window "no sample inside the window" [ (0.0, 5.0); (10.0, 7.0) ]
    ~from_:2.0 ~until:4.0 (5.0, 7.0, 7.0);
  check_window "only samples past until" [ (10.0, 7.0) ] ~from_:2.0
    ~until:4.0 (7.0, 7.0, 7.0);
  check_window "samples past until" [ (0.0, 1.0); (1.0, 2.0); (5.0, 100.0) ]
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
    Alcotest.test_case "time-weighted mean" `Quick test_time_weighted_mean_step;
    Alcotest.test_case "partial window" `Quick test_partial_window;
    Alcotest.test_case "before first sample" `Quick test_before_first_sample;
    Alcotest.test_case "unweighted mean" `Quick test_unweighted_mean;
    Alcotest.test_case "min/max with from" `Quick test_min_max;
    Alcotest.test_case "fold and to_list" `Quick test_fold_and_to_list;
    QCheck_alcotest.to_alcotest prop_constant_series_mean;
    Alcotest.test_case "window cases" `Quick test_window_cases;
    QCheck_alcotest.to_alcotest prop_window_matches_loops;
  ]
