(** Generalized subset-query planning (the paper's Section 3 remark).

    For query classes whose answer is an arbitrary subset of the readings
    (selection, quantile, extremes, ...), the "ship chosen nodes to the
    root" formulation of LP-LF carries over verbatim: maximize the number
    of sample answer entries covered by the chosen nodes, subject to the
    energy budget.  Local filtering does not generalize — forwarding a
    subtree's top values is only meaningful when the answer is the top — so
    this planner is topology-aware but filter-free, and execution ships the
    chosen readings unmodified ({!Subset_exec}). *)

type result = {
  plan : Plan.t;
  chosen : bool array;
  lp_objective : float;
  lp_stats : Lp.Revised.stats option;
  provenance : Robust_plan.provenance;
      (** whether the plan came from a certified LP solution or the greedy
          fallback *)
}

val plan :
  ?max_lp_iterations:int ->
  ?lp_deadline:float ->
  Sensor.Topology.t ->
  Sensor.Cost.t ->
  Sampling.Answers.t ->
  budget:float ->
  result
(** The root's own reading is always available and is never planned for.
    [max_lp_iterations]/[lp_deadline] bound the LP solve (see
    {!Robust_plan}); the call never raises on solver failure. *)
