(* Routing cost of a growing selection whose values each travel to the
   root: one per-value charge along the whole path (the precomputed prefix
   sum) plus a per-message charge on every edge not yet carrying traffic. *)
type path_cost = {
  root : int;
  parent : int array;
  per_message : float array;
  value_to_root : float array;
  carried : int array;  (* chosen descendants routed over each edge *)
  mutable spent : float;
}

let path_cost topo cost =
  {
    root = topo.Sensor.Topology.root;
    parent = topo.Sensor.Topology.parent;
    per_message = cost.Sensor.Cost.per_message;
    value_to_root = Sensor.Cost.value_to_root cost topo;
    carried = Array.make topo.Sensor.Topology.n 0;
    spent = 0.;
  }

let marginal pc node =
  let acc = ref pc.value_to_root.(node) in
  let u = ref node in
  while !u <> pc.root do
    if pc.carried.(!u) = 0 then acc := !acc +. pc.per_message.(!u);
    u := pc.parent.(!u)
  done;
  !acc

let add pc node marginal =
  pc.spent <- pc.spent +. marginal;
  let u = ref node in
  while !u <> pc.root do
    pc.carried.(!u) <- pc.carried.(!u) + 1;
    u := pc.parent.(!u)
  done

let commit pc node = add pc node (marginal pc node)

let try_add pc ~budget node =
  let m = marginal pc node in
  if pc.spent +. m <= budget +. 1e-9 then begin
    add pc node m;
    true
  end
  else false

(* NaN fails [budget < 0.] and every later comparison, so entry points
   test [not (budget >= 0.)] and name themselves. *)
let check_budget who budget =
  if not (budget >= 0.) then
    invalid_arg
      (Printf.sprintf "%s: budget must be a non-negative number, got %g" who
         budget)

let chosen_by_colsum topo cost ~colsum ~budget =
  let n = topo.Sensor.Topology.n in
  let root = topo.Sensor.Topology.root in
  (* Candidates by decreasing column sum, node id breaking ties. *)
  let candidates =
    List.init n (fun i -> i)
    |> List.filter (fun i -> i <> root && colsum.(i) > 0)
    |> List.sort (fun a b ->
           match Int.compare colsum.(b) colsum.(a) with
           | 0 -> Int.compare a b
           | c -> c)
  in
  let chosen = Array.make n false in
  chosen.(root) <- true;
  let pc = path_cost topo cost in
  (* Paper semantics: stop at the first candidate that does not fit. *)
  let rec add_all = function
    | [] -> ()
    | node :: rest ->
        if try_add pc ~budget node then begin
          chosen.(node) <- true;
          add_all rest
        end
  in
  add_all candidates;
  chosen

let fallback topo cost ~colsum ~budget =
  check_budget "Greedy.fallback" budget;
  let chosen = chosen_by_colsum topo cost ~colsum ~budget in
  let root = topo.Sensor.Topology.root in
  let objective = ref 0. in
  Array.iteri
    (fun i c ->
      if c && i <> root then
        objective := !objective +. float_of_int colsum.(i))
    chosen;
  (chosen, !objective)

let plan topo cost samples ~budget =
  check_budget "Greedy.plan" budget;
  Plan.of_chosen topo
    (chosen_by_colsum topo cost ~colsum:samples.Sampling.Sample_set.colsum
       ~budget)
