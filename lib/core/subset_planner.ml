type result = {
  plan : Plan.t;
  chosen : bool array;
  lp_objective : float;
  lp_stats : Lp.Revised.stats option;
  provenance : Robust_plan.provenance;
}

let plan ?max_lp_iterations ?lp_deadline topo cost answers ~budget =
  Greedy.check_budget "Subset_planner.plan" budget;
  if answers.Sampling.Answers.n <> topo.Sensor.Topology.n then
    invalid_arg "Subset_planner.plan: network size mismatch";
  let r =
    Ship_lp.plan_by_colsum ?max_lp_iterations ?lp_deadline topo cost
      ~colsum:answers.Sampling.Answers.colsum ~budget
  in
  {
    plan = Plan.of_chosen topo r.Ship_lp.chosen;
    chosen = r.Ship_lp.chosen;
    lp_objective = r.Ship_lp.lp_objective;
    lp_stats = r.Ship_lp.lp_stats;
    provenance = r.Ship_lp.provenance;
  }
