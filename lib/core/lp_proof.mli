(** PROSPECTOR-PROOF: optimizing bandwidths of proof-carrying plans
    (Section 4.3).

    Variables: a bandwidth [b_e >= 1] per edge (a proof plan must visit
    every node) and a relaxed indicator [p_{u,a,j}] for sample [j], node
    [u] and ancestor [a] — "the value of [u] is proven by [a] when the plan
    runs on sample [j]".  The objective maximizes the expected number of
    top-k values proven by the root.  Constraints follow the paper:
    - bandwidth (12): values proven by a node are among the values it
      forwards, so [sum_u p_{u,i,j} <= b_i] per edge and sample;
    - chain (13): proven at [a] requires proven at every node between the
      owner and [a];
    - proof (14): for a value to be proven at [a], every child subtree of
      [a] not containing it must prove some smaller value (the constraint
      is skipped when that subtree holds no smaller value in the sample —
      the paper's exception);
    - budget (11) over all edges.

    Bandwidths are capped at [min (subtree size) (k + 1)]: a subtree never
    usefully forwards more than its top-k members plus one witness. *)

type result = {
  plan : Plan.t;  (** rounded bandwidths, at least 1 everywhere *)
  lp_objective : float;  (** expected proven top-k count (relaxation) *)
  lp_stats : Lp.Revised.stats option;
  basis : Lp.Model.basis option;
      (** warm-start token for re-planning the same-shaped LP *)
  provenance : Robust_plan.provenance;
      (** whether the plan came from a certified LP solution or the
          fallback *)
}

exception Budget_too_small of float
(** Raised when the budget cannot pay for the mandatory
    bandwidth-1-everywhere plan; carries that minimum cost. *)

val plan :
  ?warm_start:Lp.Model.basis ->
  ?max_lp_iterations:int ->
  ?lp_deadline:float ->
  Sensor.Topology.t ->
  Sensor.Cost.t ->
  Sampling.Sample_set.t ->
  budget:float ->
  k:int ->
  result
(** [warm_start] is best-effort: incompatible tokens are ignored.
    [max_lp_iterations]/[lp_deadline] bound the LP solve; when it is not
    certified the result is the minimum proof plan (bandwidth 1 on
    every edge, always executable and affordable past the
    {!Budget_too_small} gate) with provenance
    {!Robust_plan.Fell_back_greedy}. *)
