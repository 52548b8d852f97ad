(** PROSPECTOR-LP-LF: topology-aware planning without local filtering
    (Section 4.1).

    One 0/1-relaxed variable [x_i] per node (ship node [i]'s value to the
    root) and [z_i] per edge (edge carries any traffic).  The objective
    maximizes the number of sample top-k entries covered; the budget row
    charges a per-message cost on every used edge and per-value costs along
    each chosen node's whole path.  The paper's per-ancestor edge
    constraints are encoded equivalently (and much more compactly) as
    [x_i <= z_i] plus edge-usage monotonicity [z_child <= z_parent] — valid
    because all traffic flows to the root over the tree.

    The fractional solution is rounded at 1/2 (the paper's scheme); any
    budget left over is then spent on the most fractional remaining nodes,
    highest LP value first, which matters on deep trees where the
    relaxation spreads mass below the threshold.  Measured costs are
    always taken from actual executions. *)

type result = {
  plan : Plan.t;
  lp_objective : float;  (** optimal covered-ones count of the relaxation *)
  lp_stats : Lp.Revised.stats option;
  chosen : bool array;  (** rounded node selection *)
  basis : Lp.Model.basis option;
      (** warm-start token for re-planning the same-shaped LP *)
  provenance : Robust_plan.provenance;
      (** whether the plan came from a certified LP solution or the greedy
          fallback *)
}

val plan :
  ?warm_start:Lp.Model.basis ->
  ?max_lp_iterations:int ->
  ?lp_deadline:float ->
  Sensor.Topology.t ->
  Sensor.Cost.t ->
  Sampling.Sample_set.t ->
  budget:float ->
  result
(** [warm_start] is best-effort: incompatible tokens are ignored.
    [max_lp_iterations]/[lp_deadline] bound the LP solve; when it yields
    no certified solution the plan comes from {!Greedy} (see
    {!Robust_plan}) and the call never raises on solver failure. *)
