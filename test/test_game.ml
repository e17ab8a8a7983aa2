open Ccgame

(* --- Two-strategy games between distinguishable players --- *)

(* Each player is a group of size 1 whose BBR count (0 or 1) is its
   strategy, so a count array is a profile and both payoff functions read
   the same [payoff profile player]. *)
let of_profile_payoff payoff =
  let u ~group ~counts = payoff counts group in
  { Grouped_game.u_cubic = u; u_bbr = u }

(* Prisoner's dilemma: strategies 0=cooperate, 1=defect. Unique NE: both
   defect. *)
let prisoners_dilemma =
  of_profile_payoff (fun profile player ->
      match (profile.(player), profile.(1 - player)) with
      | 0, 0 -> 3.0
      | 0, _ -> 0.0
      | 1, 0 -> 5.0
      | _, _ -> 1.0)

let two_players = [| 1; 1 |]

let test_pd_equilibrium () =
  let ne = Grouped_game.equilibria ~sizes:two_players prisoners_dilemma in
  Alcotest.(check int) "unique NE" 1 (List.length ne);
  Alcotest.(check (array int)) "both defect" [| 1; 1 |] (List.hd ne)

let test_pd_is_nash () =
  Alcotest.(check bool) "defect-defect" true
    (Grouped_game.is_equilibrium ~sizes:two_players prisoners_dilemma
       [| 1; 1 |]);
  Alcotest.(check bool) "cooperate-cooperate is not" false
    (Grouped_game.is_equilibrium ~sizes:two_players prisoners_dilemma
       [| 0; 0 |])

(* Matching pennies has no pure NE. *)
let matching_pennies =
  of_profile_payoff (fun profile player ->
      let same = profile.(0) = profile.(1) in
      if (player = 0 && same) || (player = 1 && not same) then 1.0 else -1.0)

let test_matching_pennies_no_pure_ne () =
  Alcotest.(check int) "no pure NE" 0
    (List.length (Grouped_game.equilibria ~sizes:two_players matching_pennies))

let test_coordination_two_ne () =
  (* Pure coordination: payoff 1 when matching, 0 otherwise -> 2 pure NE. *)
  let game =
    of_profile_payoff (fun profile _ ->
        if profile.(0) = profile.(1) then 1.0 else 0.0)
  in
  Alcotest.(check (list (array int))) "both matching profiles"
    [ [| 0; 0 |]; [| 1; 1 |] ]
    (Grouped_game.equilibria ~sizes:two_players game)

let test_three_player_game () =
  (* Everyone prefers strategy 1 regardless (dominant): unique NE all-1. *)
  let game = of_profile_payoff (fun profile p -> float_of_int profile.(p)) in
  let ne = Grouped_game.equilibria ~sizes:[| 1; 1; 1 |] game in
  Alcotest.(check int) "unique" 1 (List.length ne);
  Alcotest.(check (array int)) "all defect" [| 1; 1; 1 |] (List.hd ne)

(* --- Symmetric n-flow games: one group --- *)

(* The paper's shape: u_bbr decreasing in k crossing the fair share, u_cubic
   increasing. Fair share 10; crossing at k*=4. *)
let paper_like =
  {
    Grouped_game.u_cubic =
      (fun ~group:_ ~counts -> 6.0 +. float_of_int counts.(0));
    u_bbr = (fun ~group:_ ~counts -> 18.0 -. (2.0 *. float_of_int counts.(0)));
  }

let ten = [| 10 |]

(* One-group equilibria as plain BBR counts. *)
let bbr_counts ?epsilon ~sizes game =
  List.map
    (fun counts -> counts.(0))
    (Grouped_game.equilibria ?epsilon ~sizes game)

let test_symmetric_ne () =
  let ne = bbr_counts ~sizes:ten paper_like in
  (* k=4: u_bbr 4 = 10 >= u_cubic 3 = 9; u_cubic 4 = 10 >= u_bbr 5 = 8 ✓ *)
  Alcotest.(check bool) "4 is NE" true (List.mem 4 ne);
  Alcotest.(check bool) "0 is not NE (switching pays)" false (List.mem 0 ne);
  Alcotest.(check bool) "10 is not NE" false (List.mem 10 ne)

let test_symmetric_cubic_counts () =
  let cubic =
    List.map
      (Grouped_game.total_cubic ~sizes:ten)
      (Grouped_game.equilibria ~sizes:ten paper_like)
  in
  Alcotest.(check bool) "6 cubic at NE" true (List.mem 6 cubic)

let test_symmetric_all_bbr_ne () =
  (* BBR dominates at every mix: the unique NE is all-BBR (paper case 1). *)
  let game =
    {
      Grouped_game.u_cubic = (fun ~group:_ ~counts:_ -> 1.0);
      u_bbr = (fun ~group:_ ~counts:_ -> 5.0);
    }
  in
  Alcotest.(check (list int)) "all-BBR" [ 10 ] (bbr_counts ~sizes:ten game)

let test_symmetric_epsilon_widens () =
  let strict = bbr_counts ~sizes:ten paper_like in
  let loose = bbr_counts ~epsilon:0.2 ~sizes:ten paper_like in
  Alcotest.(check bool) "epsilon adds neighbours" true
    (List.length loose >= List.length strict)

let test_symmetric_validation () =
  match Grouped_game.is_equilibrium ~sizes:ten paper_like [| 11 |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "out of range should raise"

(* --- Tolerance --- *)

let test_tolerance_basic () =
  Alcotest.(check bool) "equal passes" true
    (Tolerance.no_gain ~epsilon:0.05 1.0 1.0);
  Alcotest.(check bool) "within relative slack" true
    (Tolerance.no_gain ~epsilon:0.05 0.96 1.0);
  Alcotest.(check bool) "beyond relative slack" false
    (Tolerance.no_gain ~epsilon:0.05 0.90 1.0);
  Alcotest.(check bool) "strict by default" false
    (Tolerance.no_gain 0.999_999 1.0)

let test_tolerance_zero_target () =
  (* The old relative-only form degenerated at target ~ 0: the slack
     vanished and any negative noise registered as a profitable
     deviation. [abs_tol] is the fix. *)
  Alcotest.(check bool) "relative slack still vanishes at zero" false
    (Tolerance.no_gain ~epsilon:0.1 (-1e-9) 0.0);
  Alcotest.(check bool) "abs_tol absorbs noise at zero" true
    (Tolerance.no_gain ~epsilon:0.1 ~abs_tol:1e-6 (-1e-9) 0.0);
  Alcotest.(check bool) "abs_tol is a bound, not a blank check" false
    (Tolerance.no_gain ~epsilon:0.1 ~abs_tol:1e-6 (-1.0) 0.0)

let test_tolerance_negative_target () =
  (* The old form's [target *. (1 -. epsilon)] moved the threshold the
     wrong way for negative targets: even [current = target] failed. The
     magnitude-based slack keeps the direction right. *)
  Alcotest.(check bool) "equal negative payoffs pass" true
    (Tolerance.no_gain ~epsilon:0.05 (-10.0) (-10.0));
  Alcotest.(check bool) "slightly below within slack" true
    (Tolerance.no_gain ~epsilon:0.05 (-10.4) (-10.0));
  Alcotest.(check bool) "well below fails" false
    (Tolerance.no_gain ~epsilon:0.05 (-12.0) (-10.0))

let test_tolerance_always_passes_when_no_gain () =
  List.iter
    (fun (current, target) ->
      Alcotest.(check bool)
        (Printf.sprintf "%g vs %g" current target)
        true
        (Tolerance.no_gain current target))
    [ (1.0, 1.0); (0.0, 0.0); (-5.0, -5.0); (3.0, 2.0); (-1.0, -2.0) ]

let test_tolerance_nan_fails () =
  (* NaN payoffs (empty-group means) must read as "cannot certify". *)
  Alcotest.(check bool) "nan current" false
    (Tolerance.no_gain ~epsilon:0.1 nan 1.0);
  Alcotest.(check bool) "nan target" false
    (Tolerance.no_gain ~epsilon:0.1 1.0 nan)

let test_tolerance_validation () =
  match Tolerance.no_gain ~epsilon:(-0.1) 1.0 1.0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative epsilon should raise"

let test_cubic_counts_ordering () =
  (* One-group equilibria come in increasing BBR count, so reading them
     back to front gives increasing CUBIC counts (the ext-utility column).
     Widen epsilon so several NE exist and the ordering claim is
     non-trivial. *)
  let ne = Grouped_game.equilibria ~epsilon:0.3 ~sizes:ten paper_like in
  let bbr = List.map (fun counts -> counts.(0)) ne in
  Alcotest.(check bool) "several NE" true (List.length ne > 1);
  Alcotest.(check (list int)) "increasing BBR counts" (List.sort compare bbr)
    bbr;
  Alcotest.(check (list int)) "reversed: increasing CUBIC counts"
    (List.sort compare (List.map (fun k -> 10 - k) bbr))
    (List.rev_map (Grouped_game.total_cubic ~sizes:ten) ne)

(* --- Grouped_game --- *)

(* Two groups of 2; BBR always better in group 1, CUBIC always better in
   group 0: unique NE = (0 BBR in g0, all BBR in g1). *)
let grouped =
  {
    Grouped_game.u_cubic =
      (fun ~group ~counts:_ -> if group = 0 then 10.0 else 1.0);
    u_bbr = (fun ~group ~counts:_ -> if group = 0 then 1.0 else 10.0);
  }

let test_grouped_ne () =
  let ne = Grouped_game.equilibria ~sizes:[| 2; 2 |] grouped in
  Alcotest.(check int) "unique" 1 (List.length ne);
  Alcotest.(check (array int)) "threshold NE" [| 0; 2 |] (List.hd ne)

let test_grouped_is_equilibrium () =
  Alcotest.(check bool) "0,2 NE" true
    (Grouped_game.is_equilibrium ~sizes:[| 2; 2 |] grouped [| 0; 2 |]);
  Alcotest.(check bool) "2,0 not NE" false
    (Grouped_game.is_equilibrium ~sizes:[| 2; 2 |] grouped [| 2; 0 |])

let test_grouped_total_cubic () =
  Alcotest.(check int) "total cubic" 2
    (Grouped_game.total_cubic ~sizes:[| 2; 2 |] [| 0; 2 |])

let test_grouped_validation () =
  (match Grouped_game.is_equilibrium ~sizes:[| 2 |] grouped [| 1; 1 |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "length mismatch should raise");
  match Grouped_game.is_equilibrium ~sizes:[| 2; 2 |] grouped [| 3; 0 |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "count out of range should raise"

let prop_symmetric_ne_exists_for_monotone =
  (* The paper's Fig. 6 argument: decreasing u_bbr, increasing u_cubic with
     a crossing implies at least one NE among 0..n. *)
  QCheck.Test.make ~name:"monotone crossing games have an NE" ~count:200
    QCheck.(pair (float_range 1.0 50.0) (float_range 0.1 5.0))
    (fun (start, slope) ->
      let game =
        {
          Grouped_game.u_cubic =
            (fun ~group:_ ~counts -> 1.0 +. (0.3 *. float_of_int counts.(0)));
          u_bbr =
            (fun ~group:_ ~counts ->
              start -. (slope *. float_of_int counts.(0)));
        }
      in
      Grouped_game.equilibria ~sizes:[| 20 |] game <> [])

let tests =
  [
    Alcotest.test_case "PD equilibrium" `Quick test_pd_equilibrium;
    Alcotest.test_case "PD is_nash" `Quick test_pd_is_nash;
    Alcotest.test_case "matching pennies" `Quick
      test_matching_pennies_no_pure_ne;
    Alcotest.test_case "coordination" `Quick test_coordination_two_ne;
    Alcotest.test_case "three players" `Quick test_three_player_game;
    Alcotest.test_case "symmetric NE" `Quick test_symmetric_ne;
    Alcotest.test_case "cubic counts" `Quick test_symmetric_cubic_counts;
    Alcotest.test_case "all-BBR NE" `Quick test_symmetric_all_bbr_ne;
    Alcotest.test_case "epsilon widens" `Quick test_symmetric_epsilon_widens;
    Alcotest.test_case "symmetric validation" `Quick test_symmetric_validation;
    Alcotest.test_case "tolerance basic" `Quick test_tolerance_basic;
    Alcotest.test_case "tolerance zero target" `Quick
      test_tolerance_zero_target;
    Alcotest.test_case "tolerance negative target" `Quick
      test_tolerance_negative_target;
    Alcotest.test_case "tolerance no-gain passes" `Quick
      test_tolerance_always_passes_when_no_gain;
    Alcotest.test_case "tolerance nan" `Quick test_tolerance_nan_fails;
    Alcotest.test_case "tolerance validation" `Quick test_tolerance_validation;
    Alcotest.test_case "cubic counts ordering" `Quick
      test_cubic_counts_ordering;
    Alcotest.test_case "grouped NE" `Quick test_grouped_ne;
    Alcotest.test_case "grouped is_equilibrium" `Quick
      test_grouped_is_equilibrium;
    Alcotest.test_case "grouped total cubic" `Quick test_grouped_total_cubic;
    Alcotest.test_case "grouped validation" `Quick test_grouped_validation;
    QCheck_alcotest.to_alcotest prop_symmetric_ne_exists_for_monotone;
  ]
