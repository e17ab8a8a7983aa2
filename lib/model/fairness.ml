let ideal_fct ~rtt_s ~rate_bps ~size_bytes =
  if not (rtt_s >= 0.0 && Float.is_finite rtt_s) then
    invalid_arg "Fairness.ideal_fct: rtt_s must be finite and >= 0";
  if not (rate_bps > 0.0 && Float.is_finite rate_bps) then
    invalid_arg "Fairness.ideal_fct: rate_bps must be finite and > 0";
  if size_bytes <= 0 then invalid_arg "Fairness.ideal_fct: size_bytes must be > 0";
  rtt_s +. (8.0 *. float_of_int size_bytes /. rate_bps)

let slowdown ~ideal_s ~fct_s =
  if not (ideal_s > 0.0 && Float.is_finite ideal_s) then
    invalid_arg "Fairness.slowdown: ideal_s must be finite and > 0";
  if not (fct_s > 0.0 && Float.is_finite fct_s) then
    invalid_arg "Fairness.slowdown: fct_s must be finite and > 0";
  fct_s /. ideal_s

let fct_percentiles ?(ps = [ 50.0; 95.0; 99.0 ]) fcts =
  match fcts with
  | [] -> List.map (fun p -> (p, nan)) ps
  | _ -> List.map (fun p -> (p, Sim_engine.Stats.percentile fcts ~p)) ps

let default_size_bounds = [| 100_000; 1_000_000 |]

let bin_of_size ~bounds size_bytes =
  let n = Array.length bounds in
  let i = ref 0 in
  while !i < n && size_bytes >= bounds.(!i) do
    incr i
  done;
  !i

let binned_mean_slowdown ?(bounds = default_size_bounds) ~ideal completions =
  let n = Array.length bounds + 1 in
  let sums = Array.make n 0.0 and counts = Array.make n 0 in
  List.iter
    (fun (size_bytes, fct_s) ->
      let b = bin_of_size ~bounds size_bytes in
      sums.(b) <- sums.(b) +. slowdown ~ideal_s:(ideal size_bytes) ~fct_s;
      counts.(b) <- counts.(b) + 1)
    completions;
  Array.init n (fun b ->
      if counts.(b) = 0 then nan else sums.(b) /. float_of_int counts.(b))
