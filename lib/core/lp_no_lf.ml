type result = {
  plan : Plan.t;
  lp_objective : float;
  lp_stats : Lp.Revised.stats option;
  chosen : bool array;
  basis : Lp.Model.basis option;
  provenance : Robust_plan.provenance;
}

let plan ?warm_start ?max_lp_iterations ?lp_deadline topo cost samples ~budget
    =
  Greedy.check_budget "Lp_no_lf.plan" budget;
  let r =
    Ship_lp.plan_by_colsum ?warm_start ?max_lp_iterations ?lp_deadline topo
      cost ~colsum:samples.Sampling.Sample_set.colsum ~budget
  in
  {
    plan = Plan.of_chosen topo r.Ship_lp.chosen;
    lp_objective = r.Ship_lp.lp_objective;
    lp_stats = r.Ship_lp.lp_stats;
    chosen = r.Ship_lp.chosen;
    basis = r.Ship_lp.basis;
    provenance = r.Ship_lp.provenance;
  }
