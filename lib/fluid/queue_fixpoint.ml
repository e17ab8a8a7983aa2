(* The residual f(q) = offered(q) - C is strictly decreasing and convex in
   q >= 0 (each term w/(rtt + q/C) is), so Newton iterates from any point
   left of the root increase monotonically to it, and an iterate that
   overshoots lands back on the left on the next step. No bracketing is
   needed; the iteration cap is a safety net, not a convergence crutch. *)

let offered ~capacity ~w ~rtt ~n ~q =
  let inv_c = 1.0 /. capacity in
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    acc := !acc +. (w.(i) /. (rtt.(i) +. (q *. inv_c)))
  done;
  !acc

(* Derivative of [offered] w.r.t. q: -(1/C) Σ wᵢ/(rttᵢ + q/C)². *)
let offered' ~capacity ~w ~rtt ~n ~q =
  let inv_c = 1.0 /. capacity in
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    let d = rtt.(i) +. (q *. inv_c) in
    acc := !acc +. (w.(i) /. (d *. d))
  done;
  -.(!acc *. inv_c)

let uniform_rtt rtt n =
  let r0 = rtt.(0) in
  let ok = ref true in
  for i = 1 to n - 1 do
    if rtt.(i) <> r0 then ok := false (* simlint: allow R4 *)
  done;
  !ok

let solve ~capacity ~w ~rtt ~n ~init =
  if n = 0 then 0.0
  else if offered ~capacity ~w ~rtt ~n ~q:0.0 <= capacity then 0.0
  else if uniform_rtt rtt n then begin
    (* Σ w/(rtt + q/C) = C  ⇔  q = Σ w − C·rtt, exactly. *)
    let sum = ref 0.0 in
    for i = 0 to n - 1 do
      sum := !sum +. w.(i)
    done;
    Float.max 0.0 (!sum -. (capacity *. rtt.(0)))
  end
  else begin
    let q = ref (Float.max 0.0 init) in
    let continue = ref true in
    let iters = ref 0 in
    while !continue && !iters < 40 do
      incr iters;
      let f = offered ~capacity ~w ~rtt ~n ~q:!q -. capacity in
      let f' = offered' ~capacity ~w ~rtt ~n ~q:!q in
      let step = f /. f' in
      let next = Float.max 0.0 (!q -. step) in
      if Float.abs (next -. !q) <= 1e-9 *. (1.0 +. !q) then begin
        q := next;
        continue := false
      end
      else q := next
    done;
    !q
  end
