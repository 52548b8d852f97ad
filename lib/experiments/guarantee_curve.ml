let fractions = [ 0.2; 0.35; 0.5; 0.7; 0.9; 1.1 ]

let deltas = [ 1e-2; 1e-6 ]

let eps_target = 0.35

let delta_target = 1e-3

let run ?(quick = false) ~seed () =
  let n = if quick then 25 else 40 in
  let k = if quick then 5 else 8 in
  let m = if quick then 60 else 120 in
  let rng = Rng.create (seed * 7919) in
  let layout = Sensor.Placement.uniform rng ~n ~width:200. ~height:200. () in
  let range = Sensor.Topology.min_connecting_range layout *. 1.25 in
  let topo = Sensor.Topology.build layout ~range in
  let cost = Sensor.Cost.of_mica2 topo Sensor.Mica2.default in
  let field =
    Sampling.Field.random_gaussian rng ~n ~mean_lo:20. ~mean_hi:30. ~sigma_lo:1.
      ~sigma_hi:4.
  in
  let plan_window = Sampling.Sample_set.draw rng field ~k ~count:m in
  let cert_window = Sampling.Sample_set.draw rng field ~k ~count:m in
  let anchor =
    Prospector.Plan.expected_collection_mj topo cost
      (Prospector.Proof_exec.min_bandwidth_plan topo)
  in
  let curve delta =
    let rungs =
      List.map
        (fun frac ->
          let budget = frac *. anchor in
          let r = Prospector.Lp_lf.plan topo cost plan_window ~budget ~k in
          let g =
            Prospector.Guarantee.compute ~delta ?report:r.Prospector.Lp_lf.certify
              ~objective:r.Prospector.Lp_lf.lp_objective topo cost
              r.Prospector.Lp_lf.plan ~k cert_window
          in
          ( [
              budget;
              frac;
              100. *. g.Prospector.Guarantee.empirical_accuracy;
              100. *. g.Prospector.Guarantee.eps;
              100. *. g.Prospector.Guarantee.certified_lower;
            ],
            Prospector.Guarantee.family_to_string g.Prospector.Guarantee.family ))
        fractions
    in
    Series.make
      ~title:
        (Printf.sprintf "Guarantee: certified accuracy vs energy, delta = %g"
           delta)
      ~columns:[ "budget_mJ"; "budget_frac"; "accuracy_%"; "eps_%"; "lower_%" ]
      ~notes:
        [
          "lower_%: certified accuracy floor, accuracy - eps, on a window \
           disjoint from the plan's";
          "bound family per rung: " ^ String.concat ", " (List.map snd rungs);
        ]
      (List.map fst rungs)
  in
  (* The curve read in reverse: fix the target, let the ladder find the
     budget. *)
  let both =
    Sampling.Sample_set.of_values ~k
      (Array.append plan_window.Sampling.Sample_set.values
         cert_window.Sampling.Sample_set.values)
  in
  let esc =
    Prospector.Robust_plan.plan_with_guarantee ~eps:eps_target
      ~delta:delta_target
      ~planner:(fun ~samples ~budget ->
        Prospector.Lp_lf.plan topo cost samples ~budget ~k)
      ~describe:(fun r ->
        ( r.Prospector.Lp_lf.plan,
          r.Prospector.Lp_lf.certify,
          Some r.Prospector.Lp_lf.lp_objective ))
      topo cost ~k both
      ~budget:(0.15 *. anchor)
  in
  let chosen = esc.Prospector.Robust_plan.chosen in
  let escalation =
    Series.make
      ~title:
        (Printf.sprintf "Guarantee escalation to (eps = %g, delta = %g)"
           eps_target delta_target)
      ~columns:[ "attained"; "raises"; "budget_mJ"; "lower_%" ]
      ~notes:[ "the ladder starts at 15% of the full-collection cost" ]
      [
        [
          (if esc.Prospector.Robust_plan.attained then 1. else 0.);
          float_of_int esc.Prospector.Robust_plan.escalations;
          chosen.Prospector.Robust_plan.budget;
          100.
          *. chosen.Prospector.Robust_plan.guarantee
               .Prospector.Guarantee.certified_lower;
        ];
      ]
  in
  List.map curve deltas @ [ escalation ]
