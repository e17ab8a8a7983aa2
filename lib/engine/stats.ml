type t = {
  mutable n : int;
  mutable mean : float;
  mutable m2 : float;
  mutable min : float;
  mutable max : float;
}

let create () = { n = 0; mean = 0.0; m2 = 0.0; min = infinity; max = neg_infinity }

let add t x =
  t.n <- t.n + 1;
  let delta = x -. t.mean in
  t.mean <- t.mean +. (delta /. float_of_int t.n);
  t.m2 <- t.m2 +. (delta *. (x -. t.mean));
  if x < t.min then t.min <- x;
  if x > t.max then t.max <- x

let count t = t.n
let mean t = if t.n = 0 then nan else t.mean
let variance t = if t.n < 2 then nan else t.m2 /. float_of_int (t.n - 1)
let stddev t = sqrt (variance t)
let min t = if t.n = 0 then nan else t.min
let max t = if t.n = 0 then nan else t.max

let of_list xs =
  let t = create () in
  List.iter (add t) xs;
  t

let percentile xs ~p =
  if xs = [] then invalid_arg "Stats.percentile: empty list";
  if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: p out of range";
  let arr = Array.of_list xs in
  Array.sort compare arr;
  let n = Array.length arr in
  if n = 1 then arr.(0)
  else begin
    let rank = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float (floor rank) in
    let hi = Stdlib.min (lo + 1) (n - 1) in
    let frac = rank -. float_of_int lo in
    arr.(lo) +. (frac *. (arr.(hi) -. arr.(lo)))
  end

let confidence_interval95 xs =
  match xs with
  | [] -> invalid_arg "Stats.confidence_interval95: empty list"
  | [ x ] -> (x, x)
  | _ ->
    let t = of_list xs in
    let half = 1.96 *. stddev t /. sqrt (float_of_int (count t)) in
    (mean t -. half, mean t +. half)

(* Inlined, and with no [?(eps = ...)] default: a default splits the
   function into a wrapper and an out-of-line inner function that takes its
   floats boxed, and BBR runs these on every ACK. *)
let[@inline] approx_eq ?eps a b =
  Float.abs (a -. b) <= match eps with None -> 0.0 | Some e -> e

let[@inline] is_zero ?eps x = approx_eq ?eps x 0.0

let relative_error ~predicted ~actual =
  if is_zero actual then if is_zero predicted then 0.0 else infinity
  else Float.abs (predicted -. actual) /. Float.abs actual
