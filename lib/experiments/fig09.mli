(** Figure 9(a,b): empirical Nash Equilibria vs the model's Nash region,
    sweeping buffer depth (20 flows quick / 50 flows full). *)

val flows_of_mode : Common.mode -> int
(** Total flow count used at each fidelity mode. *)

val string_of_observed : int list -> string
(** Render the observed equilibrium CUBIC-counts ("3/5", or "-" if none). *)

type point = {
  mbps : float;
  rtt_ms : float;
  buffer_bdp : float;
  n : int;
  predicted_sync : float;  (** # CUBIC at the model's NE, synchronized bound. *)
  predicted_desync : float;  (** Same, de-synchronized bound. *)
  observed : int list;  (** # CUBIC at the observed NE(s). *)
}

val points :
  other:string ->
  settings:(float * float) list ->
  buffers:float list ->
  Common.ctx ->
  point list
(** One point per (link Mbps, RTT ms) setting and buffer (BDP), in that
    order: the model's Nash region for BBR next to the equilibria of the
    symmetric CUBIC-vs-[other] game whose payoffs are measured with the
    packet-level simulator. Shared with {!Fig11}, which passes its own grid
    and the ["bbr2"] CCA. *)

val run : Common.ctx -> Common.table
(** Drive the experiment and render its result table. *)
