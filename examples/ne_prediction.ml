(* Predicting the Nash Equilibrium CUBIC/BBR mix for a network.

   Given a bottleneck (capacity, buffer, RTT) and a flow count, this example
   answers the paper's headline question for that network: how many flows
   will run CUBIC vs BBR once nobody gains by switching? It prints the
   model's prediction (Eq. 25) and verifies it empirically with
   packet-level simulated payoffs.

   Run with:  dune exec examples/ne_prediction.exe *)

let n = 20
let mbps = 100.0
let rtt_ms = 40.0

let () =
  Printf.printf
    "Nash Equilibrium prediction for %d flows at %.0f Mbps / %.0f ms\n\n" n
    mbps rtt_ms;
  Printf.printf "%12s %22s %22s %14s\n" "buffer(BDP)" "model #cubic (synch)"
    "model #cubic (desynch)" "observed NE";
  let ctx = Experiments.Common.ctx Experiments.Common.Quick in
  List.iter
    (fun buffer_bdp ->
      let params = Ccmodel.Params.of_paper_units ~mbps ~buffer_bdp ~rtt_ms in
      let region = Ccmodel.Ne.nash_region params ~n in
      (* Empirical check: measure payoffs with the packet-level simulator
         and find the equilibria of the resulting symmetric game. *)
      let capacity_bps = Sim_engine.Units.mbps mbps in
      let payoff =
        Experiments.Ne_search.packet_payoff
          ~duration:(Sim_engine.Units.seconds 60.0)
          ~warmup:(Sim_engine.Units.seconds 25.0)
          ~ctx ~mbps ~rtt_ms ~buffer_bdp ~other:"bbr" ~n ()
      in
      let observed =
        Experiments.Ne_search.observed_equilibria ~epsilon:0.02 ~n
          ~fair_bps:((capacity_bps :> float) /. float_of_int n)
          ~payoff ~window:2 ()
      in
      Printf.printf "%12.1f %22.1f %22.1f %14s\n%!" buffer_bdp
        region.cubic_at_ne_sync region.cubic_at_ne_desync
        (String.concat "/"
           (List.map (fun k -> string_of_int (n - k)) observed)))
    [ 2.0; 5.0; 10.0; 25.0 ];
  Printf.printf
    "\nReading: a mixed NE (neither 0 nor %d CUBIC flows) at most buffer\n\
     sizes is the paper's core prediction - BBR will NOT fully take over.\n"
    n
