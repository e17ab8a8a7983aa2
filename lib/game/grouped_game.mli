(** The paper's §4 game and its one equilibrium check. Flows choose CUBIC
    or BBR; a distribution is a Nash Equilibrium when no CUBIC flow gains by
    switching to BBR and no BBR flow gains by switching back. Flows are
    identical {e within} a group, so a strategy profile reduces to one BBR
    count per group. One shape serves every game the repo solves:

    - §4.1's symmetric n-flow game is one group, [sizes = [| n |]]: the
      2ⁿ profiles become n+1 distributions, and [[| k |]] is an NE iff
      u_c(k) ≥ u_b(k+1) (when k < n) and u_b(k) ≥ u_c(k−1) (when k > 0).
    - §4.5's multi-RTT game (Fig. 10) is one group per RTT: for 3 groups of
      10 flows the nominal 2³⁰ profiles become 11³ distributions, which is
      what makes the paper's exhaustive NE search feasible.
    - A game between distinguishable players with two strategies each (the
      2-flow game of the paper's ref [21]) is one group of size 1 per
      player: a player's count, 0 or 1, is its strategy, so the count array
      is the strategy profile and both payoff functions read the same
      profile. *)

type payoffs = {
  u_cubic : group:int -> counts:int array -> float;
      (** Per-flow CUBIC utility in [group] when [counts.(g)] flows of each
          group [g] run BBR. Defined when [counts.(group) < sizes.(group)]. *)
  u_bbr : group:int -> counts:int array -> float;
      (** Defined when [counts.(group) > 0]. *)
}

val is_equilibrium :
  ?epsilon:float -> sizes:int array -> payoffs -> int array -> bool
(** [sizes.(g)] is the number of flows in group [g]; the candidate is a
    BBR-count array of the same length. Raises [Invalid_argument] on a
    length mismatch or a count outside [\[0, sizes.(g)\]].

    [epsilon] (default 0) is the relative tolerance of {!Tolerance.no_gain}:
    a deviation must gain more than [epsilon x max |payoff|] to break the
    equilibrium — the empirical analogue of the paper's observation that
    throughput gains are marginal around the NE, so measurement noise
    produces several neighbouring NE. *)

val equilibria :
  ?epsilon:float -> sizes:int array -> payoffs -> int array list
(** All equilibrium distributions, lexicographically (for one group: BBR
    counts in increasing order). The search space is Π (sizes.(g)+1); keep
    groups small. *)

val total_cubic : sizes:int array -> int array -> int
(** Total CUBIC flows in a distribution (the y-axis of Figs. 9 and 10). *)
