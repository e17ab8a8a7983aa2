(** BBR (Cardwell et al., 2016) — the paper's protagonist — and the
    BBRv2-style variant of §4.6, as one state machine.

    Both variants are faithful to the published design at the level the
    paper's model depends on:

    - Startup: pacing/cwnd gain 2/ln 2 ≈ 2.885, exits when the bandwidth
      estimate plateaus (< 25% growth for 3 rounds);
    - Drain: inverse Startup gain until in-flight ≤ 1 estimated BDP;
    - ProbeBW: the 8-phase gain cycle [1.25, 0.75, 1 × 6], one phase per
      RTprop;
    - ProbeRTT: entered when the RTprop estimate expires, cwnd clamped for
      200 ms so the estimate can refresh (the mechanism behind the paper's
      Eq. 9);
    - bandwidth filter: windowed max over 10 rounds of delivery-rate samples;
    - RTprop: running minimum with the Linux rule that an expired estimate
      adopts the next sample unconditionally. Only an estimate that exists
      can expire, so a flow whose first ACK arrives late in a run does not
      open with a ProbeRTT;
    - in-flight cap: cwnd = cwnd_gain × BDP with cwnd_gain = 2 in ProbeBW —
      the 2×BDP cap at the heart of the paper's model (§2.3, assumption 2).

    {!V1} is loss-agnostic: packet loss does not change the window (§2.3,
    assumption 4). Its RTprop expires after 10 s and its ProbeRTT cwnd is
    4 MSS.

    {!V2} follows the BBRv2 draft (Cardwell et al., IETF 104). The paper
    relies on two qualitative properties of BBRv2 relative to BBRv1: it
    keeps BBR's model-based probing structure (so it still claims a
    disproportionate share at low flow counts — Fig. 7), and it reacts to
    packet loss by bounding its in-flight data, making it less aggressive
    against CUBIC (Fig. 11: NE with more CUBIC flows than BBRv1). On top of
    the shared machine it keeps an upper bound on bytes in flight,
    [inflight_hi], learned from loss:

    - it counts each round's delivered and lost bytes;
    - a probing round (Startup or a ProbeBW up-phase) with more than 2%
      loss cuts [inflight_hi] by β = 0.7, at most once per round, and ends
      Startup;
    - during ProbeBW up-phases [inflight_hi] grows every round by
      increments that double (the draft's PROBE_UP), and a loss-free
      up-probe that ends raises it to the in-flight actually reached (at
      most ×1.25);
    - outside up-phases cwnd is clamped to 0.85 × [inflight_hi];
    - RTprop expires after 5 s, and the ProbeRTT cwnd is
      max(0.5 × BDP, 4 MSS).

    Omitted (documented simplifications): long-term bandwidth sampling for
    policers, packet conservation during recovery, delayed-ACK
    compensation. {!V2} versus the draft: no ECN response, Startup ends on
    its first over-threshold round instead of the draft's count of loss
    events, and bandwidth probing is time-based (reusing the {!V1} gain
    cycle) rather than the full REFILL/UP/DOWN/CRUISE machine. *)

type variant =
  | V1  (** BBR v1; registry name ["bbr"]. *)
  | V2  (** BBRv2-style; registry name ["bbr2"]. *)

val make :
  ?probe_bw_cwnd_gain:float ->
  variant:variant ->
  mss:int ->
  rng:Sim_engine.Rng.t ->
  unit ->
  Cc_types.t
(** [probe_bw_cwnd_gain] (default 2.0) is the ProbeBW cwnd gain, i.e. the
    in-flight cap in BDPs; the cap ablation in [bench/main.ml] varies it.
    The result's [name] is the variant's registry name. *)

val mode_of : Cc_types.t -> string
(** Convenience alias for [t.state ()] (one of "Startup", "Drain", "ProbeBW",
    "ProbeRTT"). *)
