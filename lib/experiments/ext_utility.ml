(** Extension: Nash Equilibria under the paper's §4.3 "complex utility
    functions" conjecture.

    §4.3 argues that for utilities that mix throughput and delay, the NE
    distribution should barely move, because the shared queuing delay is
    almost flat across CUBIC/BBR mixes while throughput is asymmetric. We
    test this directly: utility U_i(k) = throughput_i(k) − w · C · d(k)/d_max
    where d(k) is the shared queuing delay at k BBR flows, d_max the buffer's
    maximal delay, and w sweeps from 0 (pure throughput, the paper's §4.1
    game) to 1 (delay penalty comparable to the whole link capacity). *)

let mbps = 100.0
let rtt_ms = 40.0
let buffer_bdp = 2.0
let n = 10

type point = { weight : float; ne_cubic : int list }

(* Measured (throughput_cubic, throughput_bbr, qdelay) per BBR count. The
   NE check probes every k anyway, so measure all of 0..n as one batch. *)
let samples ctx =
  let counts = List.init (n + 1) Fun.id in
  let summaries =
    Runs.mix_many ctx
      (List.map
         (fun k ->
           Runs.spec ~mbps ~rtt_ms ~buffer_bdp ~n_cubic:(n - k) ~other:"bbr"
             ~n_other:k ())
         counts)
  in
  let table =
    Array.of_list
      (List.map
         (fun (summary : Runs.summary) ->
           ( summary.Runs.per_flow_cubic_bps,
             summary.Runs.per_flow_other_bps,
             summary.Runs.queuing_delay ))
         summaries)
  in
  fun k -> table.(k)

let points (ctx : Common.ctx) =
  let sample = samples ctx in
  let capacity_bps = Sim_engine.Units.mbps mbps in
  let d_max =
    buffer_bdp
    *. (Sim_engine.Units.ms rtt_ms :> float) (* B/C = bdp multiples of rtt *)
  in
  let weights =
    match ctx.mode with
    | Common.Quick -> [ 0.0; 0.5; 1.0 ]
    | Common.Full -> [ 0.0; 0.1; 0.25; 0.5; 1.0; 2.0 ]
  in
  List.map
    (fun weight ->
      let penalty k =
        let _, _, qdelay = sample k in
        weight *. (capacity_bps :> float) *. (qdelay /. d_max)
      in
      let game =
        {
          Ccgame.Grouped_game.u_cubic =
            (fun ~group:_ ~counts ->
              let u, _, _ = sample counts.(0) in
              u -. penalty counts.(0));
          u_bbr =
            (fun ~group:_ ~counts ->
              let _, u, _ = sample counts.(0) in
              u -. penalty counts.(0));
        }
      in
      let sizes = [| n |] in
      (* Equilibria come in increasing BBR count, so reversing while
         counting CUBIC flows yields increasing CUBIC counts. *)
      let ne_cubic =
        List.rev_map
          (Ccgame.Grouped_game.total_cubic ~sizes)
          (Ccgame.Grouped_game.equilibria ~epsilon:0.02 ~sizes game)
      in
      { weight; ne_cubic })
    weights

let run ctx : Common.table =
  let points = points ctx in
  let all_mixed =
    List.for_all
      (fun p -> List.exists (fun c -> c > 0 && c < n) p.ne_cubic)
      points
  in
  {
    Common.id = "ext-utility";
    title =
      Printf.sprintf
        "Extension: NE under throughput-minus-delay utilities (%d flows, %g \
         BDP)"
        n buffer_bdp;
    header = [ "delay_weight"; "NE (#cubic)" ];
    rows =
      List.map
        (fun p ->
          [
            Common.cell p.weight;
            (match p.ne_cubic with
            | [] -> "-"
            | ks -> String.concat "/" (List.map string_of_int ks));
          ])
        points;
    notes =
      [
        Printf.sprintf
          "mixed NE persists across delay weights: %b (the paper's §4.3 \
           conjecture: the shared, nearly-flat queuing delay cannot undo \
           the throughput asymmetry)"
          all_mixed;
      ];
  }
