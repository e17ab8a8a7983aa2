(** Empirical Nash-Equilibrium search over simulated payoffs, reproducing
    the paper's §4.4 methodology with the §4.1 symmetry reduction: payoffs
    depend only on the BBR-flow count k, the per-flow BBR advantage is
    monotone (decreasing) in k, so the NE neighbourhood can be located by
    bisection and then verified exactly with {!Ccgame.Grouped_game} as a
    one-group game. *)

type payoff_fn = int -> float * float
(** [k ↦ (per-flow CUBIC utility, per-flow BBR utility)] for k BBR flows out
    of n. Conventions: the CUBIC component may be [nan] at k = n and the
    BBR component [nan] at k = 0. The search calls it O(log n + window)
    times, several times at the same k. *)

val observed_equilibria :
  ?epsilon:float ->
  n:int ->
  fair_bps:float ->
  payoff:payoff_fn ->
  window:int ->
  unit ->
  int list
(** BBR counts k that are Nash Equilibria. Bisects on
    [u_bbr k - fair_bps] and exhaustively NE-checks the ±[window]
    neighbourhood of the crossing (plus the endpoints 0 and n), with
    relative no-gain tolerance [epsilon]. When noise leaves no candidate
    passing the check, the fair-share crossing itself is reported (the
    paper's Eq. 25 locator). *)

val packet_payoff :
  ?duration:Sim_engine.Units.seconds ->
  ?warmup:Sim_engine.Units.seconds ->
  ctx:Common.ctx ->
  mbps:float ->
  rtt_ms:float ->
  buffer_bdp:float ->
  other:string ->
  n:int ->
  unit ->
  payoff_fn
(** Payoffs measured by the packet-level simulator (slower; used for spot
    checks and full mode). Each k is simulated once per ctx: a repeat is
    answered by the ctx's result store. The search is adaptive (each probe
    depends on the last), so
    callers that want parallelism should fan out at a coarser granularity —
    one grid point per worker with a {!Common.sequential} ctx — as the
    fig09/fig11 drivers do. *)
