type result = {
  plan : Plan.t;
  lp_objective : float;
  lp_stats : Lp.Revised.stats option;
  fractional : float array;
  budget_shadow_price : float;
  basis : Lp.Model.basis option;
  provenance : Robust_plan.provenance;
  certify : Lp.Certify.report option;
  guarantee : Guarantee.t option;
  lp_budget : float;
}

let check_alive who topo alive =
  match alive with
  | None -> ()
  | Some a ->
      if Array.length a <> topo.Sensor.Topology.n then
        invalid_arg (who ^ ": alive mask length mismatch");
      if not a.(topo.Sensor.Topology.root) then
        invalid_arg (who ^ ": root cannot be dead")

let is_alive alive i =
  match alive with None -> true | Some a -> a.(i)

(* What the crash start needs of the model: each node's z and b columns
   (none for the root), its monotonicity row (-1 below the root) and its
   bandwidth row per sample (-1 where the sample has no one below the
   edge), the window's ones, and each y column with its node and its
   [y <= z] row. *)
type layout = {
  z_var : Lp.Model.var option array;
  b_var : Lp.Model.var option array;
  mono_row : int array;
  bw_row : int array array;
  ones : int array array;
  ys : (int * Lp.Model.var * int) array;
}

(* The "everything covered" crash start (DESIGN.md, "Crash start"):
   every live y at its upper bound 1; each edge whose subtree holds a
   live one with z at 1 and b basic in its fullest bandwidth row (the
   first in sample order on a tie); every other row's slack basic.  A
   node is live when it and all its ancestors are alive; a dead subtree
   starts at 0 and its ones count for nothing.  There, each y is basic
   (at 0) in its own [y <= z] row, each z below a dead node is basic in
   its monotonicity row (equal to its parent's, so 0), and a dead node's
   z, fixed at 0, is marked at its upper bound; so the basis stays
   triangular and dual feasible under any mask, and only the budget row
   can be violated. *)
let crash topo layout alive =
  let n = topo.Sensor.Topology.n and root = topo.Sensor.Topology.root in
  let parent = topo.Sensor.Topology.parent in
  let live = Array.make n true in
  (match alive with
  | None -> ()
  | Some a ->
      (* Parents before children. *)
      let order = Sensor.Topology.post_order topo in
      for p = n - 1 downto 0 do
        let u = order.(p) in
        live.(u) <- u = root || (a.(u) && live.(parent.(u)))
      done);
  (* Each edge's fullest bandwidth row: per sample, count the live ones
     below every edge by climbing from each one to the root, then read
     and clear the counts on a second climb. *)
  let count = Array.make n 0 and best = Array.make n 0 in
  let best_row = Array.make n (-1) in
  let climb ones f =
    Array.iter
      (fun u ->
        if live.(u) then begin
          let a = ref u in
          while !a <> root do
            f !a;
            a := parent.(!a)
          done
        end)
      ones
  in
  Array.iteri
    (fun j ones ->
      climb ones (fun a -> count.(a) <- count.(a) + 1);
      climb ones (fun a ->
          let c = count.(a) in
          if c > best.(a) then begin
            best.(a) <- c;
            best_row.(a) <- layout.bw_row.(a).(j)
          end;
          count.(a) <- 0))
    layout.ones;
  let basic = ref [] and at_upper = ref [] in
  for i = 0 to n - 1 do
    match (layout.z_var.(i), layout.b_var.(i)) with
    | Some z, Some b ->
        if live.(i) then begin
          if best.(i) > 0 then begin
            basic := (best_row.(i), b) :: !basic;
            at_upper := z :: !at_upper
          end
        end
        else if is_alive alive i then
          basic := (layout.mono_row.(i), z) :: !basic
        else at_upper := z :: !at_upper
    | _ -> ()
  done;
  Array.iter
    (fun (u, y, row) ->
      if live.(u) then at_upper := y :: !at_upper
      else basic := (row, y) :: !basic)
    layout.ys;
  { Lp.Model.basic = !basic; at_upper = !at_upper }

(* The model, with the variable index of each node's z and b (-1 for the
   root) and the layout of its crash start, which the model carries for
   [alive].  The budget row is the last constraint. *)
let build ?alive ~who topo cost samples ~budget ~k =
  if k < 1 then invalid_arg (who ^ ": k must be positive");
  check_alive who topo alive;
  let n = topo.Sensor.Topology.n in
  let root = topo.Sensor.Topology.root in
  let ones = samples.Sampling.Sample_set.ones in
  let n_samples = Array.length ones in
  let model = Lp.Model.create ~direction:Lp.Model.Maximize () in
  let z = Array.make n None and b = Array.make n None in
  for i = 0 to n - 1 do
    if i <> root then begin
      (* Dead nodes keep their variables — same model shape, so PR-1
         warm-start tokens from the undamaged solve still apply — but
         their edge can never activate: z's upper bound drops to 0, the
         activation row forces b = 0, y <= z forces coverage to 0 and
         z-monotonicity shuts every descendant's edge. *)
      let z_upper = if is_alive alive i then 1. else 0. in
      z.(i) <-
        Some (Lp.Model.add_var model ~upper:z_upper (Printf.sprintf "z%d" i));
      let cap =
        float_of_int (Int.min k topo.Sensor.Topology.subtree_size.(i))
      in
      b.(i) <-
        Some (Lp.Model.add_var model ~upper:cap (Printf.sprintf "b%d" i))
    end
  done;
  let getz i =
    match z.(i) with
    | Some v -> v
    | None -> failwith (Printf.sprintf "Lp_lf.plan: no z variable for node %d" i)
  and getb i =
    match b.(i) with
    | Some v -> v
    | None -> failwith (Printf.sprintf "Lp_lf.plan: no b variable for node %d" i)
  in
  (* y variables, one per (sample, non-root one). *)
  let y = Hashtbl.create (n_samples * k) in
  for j = 0 to n_samples - 1 do
    Array.iter
      (fun i ->
        if i <> root then
          Hashtbl.replace y (j, i)
            (Lp.Model.add_var model ~upper:1. ~obj:1.
               (Printf.sprintf "y%d_%d" j i)))
      ones.(j)
  done;
  (* Edge activation and monotonicity. *)
  let mono_row = Array.make n (-1) in
  for i = 0 to n - 1 do
    if i <> root then begin
      let cap =
        float_of_int (Int.min k topo.Sensor.Topology.subtree_size.(i))
      in
      Lp.Model.add_le model [ (1., getb i); (-.cap, getz i) ] 0.;
      let p = topo.Sensor.Topology.parent.(i) in
      if p <> root then begin
        mono_row.(i) <- Lp.Model.n_constraints model;
        Lp.Model.add_le model [ (1., getz i); (-1., getz p) ] 0.
      end
    end
  done;
  let ys = ref [] in
  (* y_{j,i} <= z_i on the node's own uplink.  Rows are added in sorted
     (sample, node) order so the LP's row layout — and therefore the
     solver's pivot trajectory — never depends on hash-table order. *)
  Hashtbl.fold (fun k yv acc -> (k, yv) :: acc) y []
  |> List.sort (fun (((j1 : int), (i1 : int)), _) ((j2, i2), _) ->
         match Int.compare j1 j2 with 0 -> Int.compare i1 i2 | c -> c)
  |> List.iter (fun ((_, i), yv) ->
         ys := (i, yv, Lp.Model.n_constraints model) :: !ys;
         Lp.Model.add_le model [ (1., yv); (-1., getz i) ] 0.);
  (* Bandwidth rows: per (edge, sample), the covered ones below the edge
     cannot exceed its bandwidth.  Rows with no ones below are skipped. *)
  let bw_row = Array.make n [||] in
  for i = 0 to n - 1 do
    if i <> root then begin
      let desc = Sensor.Topology.descendants topo i in
      let rows = Array.make n_samples (-1) in
      for j = 0 to n_samples - 1 do
        let terms =
          List.filter_map
            (fun u -> Option.map (fun yv -> (1., yv)) (Hashtbl.find_opt y (j, u)))
            desc
        in
        if terms <> [] then begin
          rows.(j) <- Lp.Model.n_constraints model;
          Lp.Model.add_le model ((-1., getb i) :: terms) 0.
        end
      done;
      bw_row.(i) <- rows
    end
  done;
  (* Budget. *)
  let budget_terms = ref [] in
  for i = 0 to n - 1 do
    if i <> root then
      budget_terms :=
        (cost.Sensor.Cost.per_message.(i), getz i)
        :: (cost.Sensor.Cost.per_value.(i), getb i)
        :: !budget_terms
  done;
  Lp.Model.add_le model !budget_terms budget;
  let layout =
    { z_var = z; b_var = b; mono_row; bw_row; ones; ys = Array.of_list !ys }
  in
  Lp.Model.set_start model (crash topo layout alive);
  let index v = Option.fold ~none:(-1) ~some:Lp.Model.var_index v in
  (model, Array.map index z, Array.map index b, layout)

let lp_model ?alive topo cost samples ~budget ~k =
  Greedy.check_budget "Lp_lf.lp_model" budget;
  let model, _, _, _ =
    build ?alive ~who:"Lp_lf.lp_model" topo cost samples ~budget ~k
  in
  model

(* The budget enters the LP as one right-hand side and a dead node as one
   upper bound, so an instance is built and lowered once and every solve
   patches copies of those two arrays; the matrix is shared.  The
   guarantee ladder plans on the first half of the window: [half] keeps
   that half's instance once a guarantee solve has built it. *)
type instance = {
  topo : Sensor.Topology.t;
  cost : Sensor.Cost.t;
  samples : Sampling.Sample_set.t;
  k : int;
  model : Lp.Model.t;  (* built at budget 0, everyone alive *)
  problem : Lp.Problem.t;  (* its lowering *)
  z_cols : int array;
  b_cols : int array;
  layout : layout;  (* for the crash start under an alive mask *)
  budget_row : int;
  half : instance option Atomic.t;
}

let make_instance ~who topo cost samples ~k =
  let t0 = if Obs.Trace.active () then Obs.Trace.now () else 0. in
  let model, z_cols, b_cols, layout =
    build ~who topo cost samples ~budget:0. ~k
  in
  let problem = Lp.Model.to_problem model in
  if Obs.Trace.active () then
    Obs.Trace.emit Obs.Trace.Plan ~name:"lp_lf.instance" ~start_s:t0
      ~dur_s:(Obs.Trace.now () -. t0)
      [
        ("rows", Obs.Trace.Int problem.Lp.Problem.nrows);
        ("cols", Obs.Trace.Int problem.Lp.Problem.ncols);
        ("samples", Obs.Trace.Int (Sampling.Sample_set.n_samples samples));
      ];
  {
    topo;
    cost;
    samples;
    k;
    model;
    problem;
    z_cols;
    b_cols;
    layout;
    budget_row = problem.Lp.Problem.nrows - 1;
    half = Atomic.make None;
  }

let instance topo cost samples ~k =
  make_instance ~who:"Lp_lf.instance" topo cost samples ~k

(* The instance's lowering at [budget] under [alive].  A masked solve
   reads its own crash start only when it has no token that fits the
   model (a token that fits is used, and should it fail the solve falls
   back to the all-slack basis), so the start is built only then. *)
let patched ~who ?alive ?warm_start inst ~budget =
  check_alive who inst.topo alive;
  let p = inst.problem in
  let rhs = Array.copy p.Lp.Problem.rhs in
  rhs.(inst.budget_row) <- budget;
  match alive with
  | None -> { p with Lp.Problem.rhs }
  | Some a ->
      let upper = Array.copy p.Lp.Problem.upper in
      Array.iteri
        (fun i z -> if z >= 0 && not a.(i) then upper.(z) <- 0.)
        inst.z_cols;
      let start =
        match warm_start with
        | Some w when Lp.Model.basis_compatible inst.model w -> None
        | Some _ | None ->
            Some
              (Lp.Model.lower_start inst.model
                 (crash inst.topo inst.layout alive))
      in
      { p with Lp.Problem.rhs; upper; start }

let problem ?alive inst ~budget =
  patched ~who:"Lp_lf.problem" ?alive inst ~budget

(* Emit one [Plan] span per planning decision, carrying where the plan
   came from and what the LP claimed for it. *)
let traced_plan ~topo ~budget ~k f =
  if not (Obs.Trace.active ()) then f ()
  else begin
    let t0 = Obs.Trace.now () in
    let r = f () in
    Obs.Trace.emit Obs.Trace.Plan ~name:"planner.lp_lf" ~start_s:t0
      ~dur_s:(Obs.Trace.now () -. t0)
      [
        ( "provenance",
          Obs.Trace.Str
            (Format.asprintf "%a" Robust_plan.pp_provenance r.provenance) );
        ("lp_objective", Obs.Trace.Float r.lp_objective);
        ("budget", Obs.Trace.Float budget);
        ("k", Obs.Trace.Int k);
        ("nodes", Obs.Trace.Int topo.Sensor.Topology.n);
      ];
    r
  end

(* A certified LP solution at [budget] as a planner result: the
   bandwidth columns rounded to a plan, the budget row's dual. *)
let of_solution inst ~budget (sol : Lp.Model.solution) ~report =
  let topo = inst.topo in
  let n = topo.Sensor.Topology.n and root = topo.Sensor.Topology.root in
  let fractional = Array.make n 0. in
  for i = 0 to n - 1 do
    if i <> root then fractional.(i) <- sol.Lp.Model.values.(inst.b_cols.(i))
  done;
  let budget_shadow_price =
    match sol.Lp.Model.row_duals with
    | Some duals -> duals.(inst.budget_row)
    | None -> 0.
  in
  {
    plan = Plan.of_fractional topo fractional;
    lp_objective = sol.Lp.Model.objective;
    lp_stats = sol.Lp.Model.stats;
    fractional;
    budget_shadow_price;
    basis = sol.Lp.Model.basis;
    provenance = Robust_plan.Certified_revised;
    certify = Some report;
    guarantee = None;
    lp_budget = budget;
  }

let solve_lp ~who ?alive ?warm_start ?max_lp_iterations ?lp_deadline inst
    ~budget =
  let topo = inst.topo and cost = inst.cost and samples = inst.samples in
  traced_plan ~topo ~budget ~k:inst.k @@ fun () ->
  let problem = patched ~who ?alive ?warm_start inst ~budget in
  let n = topo.Sensor.Topology.n in
  match
    Robust_plan.solve ?warm_start ?max_iterations:max_lp_iterations
      ?deadline:lp_deadline ~problem inst.model
  with
  | Error _ ->
      (* No certified LP solution: ship the greedy selection without local
         filtering.  Its objective is the covered-ones count the selection
         achieves on the samples (the same currency as the LP's). *)
      let colsum =
        (* The greedy fallback must honour the mask too: a dead node's
           column count drops to 0, which excludes it from selection. *)
        match alive with
        | None -> samples.Sampling.Sample_set.colsum
        | Some a ->
            Array.mapi
              (fun i c -> if a.(i) then c else 0)
              samples.Sampling.Sample_set.colsum
      in
      let chosen, lp_objective = Greedy.fallback topo cost ~colsum ~budget in
      let plan = Plan.of_chosen topo chosen in
      {
        plan;
        lp_objective;
        lp_stats = None;
        fractional =
          Array.init n (fun i -> float_of_int (Plan.bandwidth plan i));
        budget_shadow_price = 0.;
        basis = None;
        provenance = Robust_plan.Fell_back_greedy;
        certify = None;
        guarantee = None;
        lp_budget = budget;
      }
  | Ok r ->
      of_solution inst ~budget r.Robust_plan.solution
        ~report:r.Robust_plan.report

(* ---- budget segments ---- *)

(* Only a certified LP solution carries a basis. *)
let segment inst (r : result) =
  Option.bind r.basis (fun token ->
      Lp.Model.range
        ~problem:(patched ~who:"Lp_lf.segment" inst ~budget:r.lp_budget)
        inst.model token ~row:inst.budget_row)

let solve_segment inst seg ~budget =
  let who = "Lp_lf.solve_segment" in
  Greedy.check_budget who budget;
  let problem = patched ~who inst ~budget in
  match Lp.Model.affine_certified ~problem inst.model seg with
  | Error _ -> None
  | Ok (sol, report) -> Some (of_solution inst ~budget sol ~report)

(* The LP depends on a window only through its ones. *)
let same_ones (a : Sampling.Sample_set.t) (b : Sampling.Sample_set.t) =
  a == b
  ||
  let oa = a.Sampling.Sample_set.ones and ob = b.Sampling.Sample_set.ones in
  Array.length oa = Array.length ob
  && Array.for_all2
       (fun x y -> Array.length x = Array.length y && Array.for_all2 Int.equal x y)
       oa ob

(* The instance of the ladder's plan window [samples] for a guarantee
   solve of [inst]: [inst] itself when the window is not split, else the
   half-window instance kept in [inst.half], built by the first guarantee
   solve that needs it. *)
let window_instance ~who inst samples =
  if samples == inst.samples then inst
  else
    match Atomic.get inst.half with
    | Some h when same_ones h.samples samples -> h
    | Some _ | None ->
        let h = make_instance ~who inst.topo inst.cost samples ~k:inst.k in
        ignore (Atomic.compare_and_set inst.half None (Some h));
        h

(* The guarantee ladder: one instance of the plan window
   ([instance_of]), every rung a re-solve of it at the rung's budget, each
   warm-started from the previous rung's final basis. *)
let ladder ~who ?alive ?warm_start ?max_lp_iterations ?lp_deadline ~eps ~delta
    ~instance_of topo cost samples ~budget ~k =
  let warm = ref warm_start in
  let g =
    Robust_plan.plan_with_guarantee ~eps ~delta
      ~planner:(fun ~samples ~budget ->
        let inst = instance_of samples in
        let r =
          solve_lp ~who ?alive ?warm_start:!warm ?max_lp_iterations
            ?lp_deadline inst ~budget
        in
        (match r.basis with Some _ -> warm := r.basis | None -> ());
        r)
      ~describe:(fun r -> (r.plan, r.certify, Some r.lp_objective))
      topo cost ~k samples ~budget
  in
  let chosen = g.Robust_plan.chosen in
  {
    chosen.Robust_plan.result with
    guarantee = Some chosen.Robust_plan.guarantee;
  }

let solve ?alive ?warm_start ?max_lp_iterations ?lp_deadline ?guarantee inst
    ~budget =
  let who = "Lp_lf.solve" in
  Greedy.check_budget who budget;
  match guarantee with
  | None ->
      solve_lp ~who ?alive ?warm_start ?max_lp_iterations ?lp_deadline inst
        ~budget
  | Some (eps, delta) ->
      ladder ~who ?alive ?warm_start ?max_lp_iterations ?lp_deadline ~eps
        ~delta ~instance_of:(window_instance ~who inst) inst.topo inst.cost
        inst.samples ~budget ~k:inst.k

let plan ?alive ?warm_start ?max_lp_iterations ?lp_deadline ?guarantee topo
    cost samples ~budget ~k =
  let who = "Lp_lf.plan" in
  Greedy.check_budget who budget;
  match guarantee with
  | None ->
      solve_lp ~who ?alive ?warm_start ?max_lp_iterations ?lp_deadline
        (make_instance ~who topo cost samples ~k)
        ~budget
  | Some (eps, delta) ->
      (* A fresh ladder builds its window's instance once. *)
      let window = ref None in
      let instance_of samples =
        match !window with
        | Some (s, inst) when s == samples -> inst
        | Some _ | None ->
            let inst = make_instance ~who topo cost samples ~k in
            window := Some (samples, inst);
            inst
      in
      ladder ~who ?alive ?warm_start ?max_lp_iterations ?lp_deadline ~eps
        ~delta ~instance_of topo cost samples ~budget ~k
