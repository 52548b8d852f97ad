(** Shared core of the "ship chosen nodes to the root" LP planners
    ({!Lp_no_lf} for top-k, {!Subset_planner} for generalized subset
    queries).  The formulation only depends on how often each node
    contributes to sample answers (its column sum). *)

type result = {
  chosen : bool array;
  lp_objective : float;
  lp_stats : Lp.Revised.stats option;
  basis : Lp.Model.basis option;
      (** warm-start token for re-planning the same-shaped LP *)
  provenance : Robust_plan.provenance;
      (** whether [chosen] came from a certified LP solution or the
          greedy fallback *)
}

val plan_by_colsum :
  ?warm_start:Lp.Model.basis ->
  ?max_lp_iterations:int ->
  ?lp_deadline:float ->
  Sensor.Topology.t ->
  Sensor.Cost.t ->
  colsum:int array ->
  budget:float ->
  result
(** Solve the relaxation through the {!Robust_plan} certified chain, round
    at 1/2, then spend leftover budget on the most fractional remaining
    nodes.  When the LP solve yields no certified solution (e.g. a crippled
    [max_lp_iterations] or exhausted [lp_deadline]) the node selection
    comes from {!Greedy.fallback} instead and [provenance] says
    so — the function never raises on solver failure.  [warm_start] is
    best-effort: tokens from a differently shaped model are ignored.
    @raise Invalid_argument on a negative or NaN budget. *)
