type result = {
  chosen : bool array;
  lp_objective : float;
  lp_stats : Lp.Revised.stats option;
  basis : Lp.Model.basis option;
  provenance : Robust_plan.provenance;
}

let plan_by_colsum ?warm_start ?max_lp_iterations ?lp_deadline topo cost
    ~colsum ~budget =
  Greedy.check_budget "Ship_lp.plan_by_colsum" budget;
  let n = topo.Sensor.Topology.n in
  if Array.length colsum <> n then
    invalid_arg "Ship_lp.plan_by_colsum: colsum length";
  let root = topo.Sensor.Topology.root in
  let parent = topo.Sensor.Topology.parent in
  let value_to_root = Sensor.Cost.value_to_root cost topo in
  let model = Lp.Model.create ~direction:Lp.Model.Maximize () in
  let x = Array.make n None and z = Array.make n None in
  for i = 0 to n - 1 do
    if i <> root then begin
      x.(i) <-
        Some
          (Lp.Model.add_var model ~upper:1.
             ~obj:(float_of_int colsum.(i))
             (Printf.sprintf "x%d" i));
      z.(i) <- Some (Lp.Model.add_var model ~upper:1. (Printf.sprintf "z%d" i))
    end
  done;
  let getx i =
    match x.(i) with
    | Some v -> v
    | None ->
        failwith (Printf.sprintf "Ship_lp.plan: no x variable for node %d" i)
  and getz i =
    match z.(i) with
    | Some v -> v
    | None ->
        failwith (Printf.sprintf "Ship_lp.plan: no z variable for node %d" i)
  in
  (* x_i <= z_i and edge-usage monotonicity z_i <= z_parent(i). *)
  for i = 0 to n - 1 do
    if i <> root then begin
      Lp.Model.add_le model [ (1., getx i); (-1., getz i) ] 0.;
      let p = parent.(i) in
      if p <> root then
        Lp.Model.add_le model [ (1., getz i); (-1., getz p) ] 0.
    end
  done;
  (* Budget: per-message on used edges, per-value along each chosen path. *)
  let budget_terms = ref [] in
  for i = 0 to n - 1 do
    if i <> root then begin
      budget_terms :=
        (cost.Sensor.Cost.per_message.(i), getz i) :: !budget_terms;
      budget_terms := (value_to_root.(i), getx i) :: !budget_terms
    end
  done;
  Lp.Model.add_le model !budget_terms budget;
  match
    Robust_plan.solve ?warm_start ?max_iterations:max_lp_iterations
      ?deadline:lp_deadline model
  with
  | Error _ ->
      (* No certified LP solution (or a certified infeasible/unbounded
         verdict, which these always-feasible programs cannot honestly
         produce): plan combinatorially instead of crashing. *)
      let chosen, lp_objective =
        Greedy.fallback topo cost ~colsum ~budget
      in
      {
        chosen;
        lp_objective;
        lp_stats = None;
        basis = None;
        provenance = Robust_plan.Fell_back_greedy;
      }
  | Ok r ->
  let sol = r.Robust_plan.solution in
  let chosen = Array.make n false in
  chosen.(root) <- true;
  for i = 0 to n - 1 do
    if i <> root && Lp.Model.value sol (getx i) >= 0.5 then chosen.(i) <- true
  done;
  (* Threshold rounding can leave an empty (or very light) plan when the
     relaxation spreads mass below 1/2 — common on deep trees where many
     nodes share path costs.  Spend the remaining budget on the
     highest-valued fractional nodes, most promising first. *)
  let spent = Greedy.path_cost topo cost in
  for i = 0 to n - 1 do
    if chosen.(i) && i <> root then Greedy.commit spent i
  done;
  let fractional_candidates =
    List.init n (fun i -> i)
    |> List.filter (fun i ->
           i <> root
           && (not chosen.(i))
           && Lp.Model.value sol (getx i) > 0.05
           && colsum.(i) > 0)
    |> List.sort (fun a b ->
           Float.compare
             (Lp.Model.value sol (getx b))
             (Lp.Model.value sol (getx a)))
  in
  List.iter
    (fun i -> if Greedy.try_add spent ~budget i then chosen.(i) <- true)
    fractional_candidates;
  {
    chosen;
    lp_objective = sol.Lp.Model.objective;
    lp_stats = sol.Lp.Model.stats;
    basis = sol.Lp.Model.basis;
    provenance = Robust_plan.Certified_revised;
  }
