type result = {
  plan : Plan.t;
  lp_objective : float;
  lp_stats : Lp.Revised.stats option;
  basis : Lp.Model.basis option;
  provenance : Robust_plan.provenance;
}

exception Budget_too_small of float

let plan ?warm_start ?max_lp_iterations ?lp_deadline topo cost samples ~budget
    ~k =
  if k < 1 then invalid_arg "Lp_proof.plan: k must be positive";
  let n = topo.Sensor.Topology.n in
  let root = topo.Sensor.Topology.root in
  let values = samples.Sampling.Sample_set.values in
  let n_samples = Array.length values in
  (* Feasibility: every edge must at least carry one value. *)
  let min_cost = ref 0. in
  for i = 0 to n - 1 do
    if i <> root then
      min_cost := !min_cost +. Sensor.Cost.message_mj cost ~node:i ~values:1
  done;
  if budget < !min_cost -. 1e-9 then raise (Budget_too_small !min_cost);
  let model = Lp.Model.create ~direction:Lp.Model.Maximize () in
  let b = Array.make n None in
  for i = 0 to n - 1 do
    if i <> root then begin
      let cap =
        float_of_int (Int.min topo.Sensor.Topology.subtree_size.(i) (k + 1))
      in
      (* The epsilon bonus breaks ties among optimal plans towards ones
         that use the allocated energy: extra phase-1 values cannot hurt
         and often spare the mop-up phase when reality departs from the
         samples (visible in Figure 8's rising phase-1 curve). *)
      b.(i) <-
        Some
          (Lp.Model.add_var model ~lower:1. ~upper:cap ~obj:1e-4
             (Printf.sprintf "b%d" i))
    end
  done;
  let getb i =
    match b.(i) with
    | Some v -> v
    | None ->
        failwith (Printf.sprintf "Lp_proof.plan: no b variable for node %d" i)
  in
  (* p variables: (sample, node, ancestor) -> var.  The ancestor list of a
     node includes itself and ends at the root. *)
  let p = Hashtbl.create (n_samples * n * 4) in
  let is_one = samples.Sampling.Sample_set.is_one in
  for j = 0 to n_samples - 1 do
    for u = 0 to n - 1 do
      List.iter
        (fun a ->
          if not (u = root && a <> root) then
            let obj = if a = root && is_one.(j).(u) then 1. else 0. in
            Hashtbl.replace p (j, u, a)
              (Lp.Model.add_var model ~upper:1. ~obj
                 (Printf.sprintf "p%d_%d_%d" j u a)))
        (Sensor.Topology.path_to_root topo u)
    done
  done;
  let getp j u a =
    match Hashtbl.find_opt p (j, u, a) with
    | Some v -> v
    | None ->
        failwith
          (Printf.sprintf
             "Lp_proof.plan: no p variable for sample %d, node %d, ancestor %d"
             j u a)
  in
  (* Chain constraints (13): going up the path, provenness cannot grow. *)
  for j = 0 to n_samples - 1 do
    for u = 0 to n - 1 do
      let rec chain = function
        | below :: above :: rest ->
            Lp.Model.add_le model
              [ (1., getp j u above); (-1., getp j u below) ]
              0.;
            chain (above :: rest)
        | [ _ ] | [] -> ()
      in
      chain (Sensor.Topology.path_to_root topo u)
    done
  done;
  (* Bandwidth constraints (12): per edge and sample, the number of values
     proven at the node is at most its bandwidth. *)
  let desc = Array.init n (fun i -> Sensor.Topology.descendants topo i) in
  for i = 0 to n - 1 do
    if i <> root then
      for j = 0 to n_samples - 1 do
        let terms = List.map (fun u -> (1., getp j u i)) desc.(i) in
        Lp.Model.add_le model ((-1., getb i) :: terms) 0.
      done
  done;
  (* Dominance chains (Lemma 1): the values a node proves are a top-prefix
     of its subtree, so within each subtree provenness is monotone in the
     value order.  Without these rows the LP could "prove" a deep small
     value while the local filter would in fact forward the larger ones
     above it. *)
  for i = 0 to n - 1 do
    for j = 0 to n_samples - 1 do
      let order =
        List.sort
          (fun u w ->
            Exec.value_order (u, values.(j).(u)) (w, values.(j).(w)))
          desc.(i)
      in
      let rec chain = function
        | above :: below :: rest ->
            Lp.Model.add_le model
              [ (1., getp j below i); (-1., getp j above i) ]
              0.;
            chain (below :: rest)
        | [ _ ] | [] -> ()
      in
      if i <> root then chain order
    done
  done;
  (* Proof constraints (14).  For value owner u, prover a, and each child s
     of a whose subtree does not contain u: some strictly smaller value of
     s's subtree must be proven at s. *)
  let ranks_above v w = Exec.value_order v w < 0 in
  (* Certification of value (owned by u, sample j) by child subtree s:
     - normal case: some strictly smaller value below s is proven at s;
     - no smaller value exists below s (the paper's "exception"): the value
       is certifiable only if s ships its entire subtree, which we encode
       linearly as p <= b_s - |subtree(s)| + 1 (the paper merely skips the
       row here, which lets the LP overestimate what plans can prove);
     - when the bandwidth cap prevents s from ever shipping everything,
       the value is simply unprovable at this prover. *)
  let certification j u a s pvar =
    let witnesses =
      List.filter
        (fun w -> ranks_above (u, values.(j).(u)) (w, values.(j).(w)))
        desc.(s)
    in
    if witnesses <> [] then
      Lp.Model.add_le model
        ((1., pvar) :: List.map (fun w -> (-1., getp j w s)) witnesses)
        0.
    else begin
      ignore a;
      let size = topo.Sensor.Topology.subtree_size.(s) in
      if size = 1 then ()  (* a singleton subtree always ships itself *)
      else if size <= k + 1 then begin
        (* p <= (b_s - 1)/(size - 1): zero at the minimum bandwidth, one
           exactly when s ships its whole subtree. *)
        let s1 = float_of_int (size - 1) in
        Lp.Model.add_le model
          [ (1., pvar); (-1. /. s1, getb s) ]
          (-1. /. s1)
      end
      else Lp.Model.add_le model [ (1., pvar) ] 0.
    end
  in
  for j = 0 to n_samples - 1 do
    for u = 0 to n - 1 do
      if not (u = root) then
        List.iter
          (fun a ->
            Array.iter
              (fun s ->
                if not (Sensor.Topology.is_ancestor topo ~anc:s ~desc:u) then
                  certification j u a s (getp j u a))
              topo.Sensor.Topology.children.(a))
          (Sensor.Topology.path_to_root topo u)
    done
  done;
  (* The root's own value needs the same treatment (a = root, u = root). *)
  for j = 0 to n_samples - 1 do
    Array.iter
      (fun s -> certification j root root s (getp j root root))
      topo.Sensor.Topology.children.(root)
  done;
  (* Budget (11): all edges pay their per-message cost; bandwidth pays per
     value. *)
  let fixed =
    let acc = ref 0. in
    for i = 0 to n - 1 do
      if i <> root then acc := !acc +. cost.Sensor.Cost.per_message.(i)
    done;
    !acc
  in
  let budget_terms = ref [] in
  let min_value_spend = ref 0. in
  for i = 0 to n - 1 do
    if i <> root then begin
      budget_terms := (cost.Sensor.Cost.per_value.(i), getb i) :: !budget_terms;
      min_value_spend := !min_value_spend +. cost.Sensor.Cost.per_value.(i)
    end
  done;
  (* Budgets at (or a whisker below) the mandatory minimum must stay
     feasible despite floating-point accumulation in [fixed]. *)
  let rhs = Float.max (budget -. fixed) (!min_value_spend *. (1. +. 1e-9)) in
  Lp.Model.add_le model !budget_terms rhs;
  match
    Robust_plan.solve ?warm_start ?max_iterations:max_lp_iterations
      ?deadline:lp_deadline model
  with
  | Error _ ->
      (* No certified LP solution.  The budget check above guarantees the
         minimum proof plan (bandwidth 1 everywhere) is affordable, and it
         is always executable — its provable count is just not optimized,
         so the reported relaxation objective claims nothing. *)
      {
        plan = Proof_exec.min_bandwidth_plan topo;
        lp_objective = 0.;
        lp_stats = None;
        basis = None;
        provenance = Robust_plan.Fell_back_greedy;
      }
  | Ok r ->
  let sol = r.Robust_plan.solution in
  let fractional = Array.make n 0. in
  let bonus = ref 0. in
  for i = 0 to n - 1 do
    if i <> root then begin
      let v = Float.max 1. (Lp.Model.value sol (getb i)) in
      fractional.(i) <- v;
      bonus := !bonus +. (1e-4 *. v)
    end
  done;
  {
    plan = Plan.of_fractional ~round:`Up topo fractional;
    lp_objective =
      (sol.Lp.Model.objective -. !bonus) /. float_of_int n_samples;
    lp_stats = sol.Lp.Model.stats;
    basis = sol.Lp.Model.basis;
    provenance = Robust_plan.Certified_revised;
  }
