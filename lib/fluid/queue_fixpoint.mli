(** The shared fluid-queue fixed point, as a zero-allocation kernel.

    Both fluid-style backends ({!Fluid_sim}'s round stepper and
    {!Ode_model}'s integrator) model the bottleneck queue as the algebraic
    fixed point of

    {v  Σᵢ wᵢ / (rttᵢ + q/C)  =  C  v}

    (or [q = 0] when the link is under-utilized): every flow's in-flight
    data [wᵢ] is spread over its inflated round trip, and the queue length
    is whatever makes the arrival rate match the capacity. This module
    solves that equation over bare float arrays so the per-step inner loops
    of both backends allocate nothing. *)

val offered :
  capacity:float -> w:float array -> rtt:float array -> n:int -> q:float ->
  float
(** [offered ~capacity ~w ~rtt ~n ~q] is [Σᵢ wᵢ/(rttᵢ + q/capacity)]
    over the first [n] entries — the aggregate arrival rate
    (bytes/s) at queue length [q] (bytes). *)

val solve :
  capacity:float -> w:float array -> rtt:float array -> n:int ->
  init:float ->
  float
(** The unconstrained fixed point [q* >= 0] (bytes). [init] is a warm-start
    guess (pass the previous step's solution, or [0.]); the solver is a
    safeguarded Newton iteration on the convex decreasing residual
    [offered q - capacity], so a warm start from a nearby solution
    converges in a couple of iterations. Allocation-free.

    When the first [n] RTTs are all equal the fixed point is
    closed-form ([Σ w - C·rtt]) and [init] is ignored. *)
