(* Re-solving one LP+LF instance.  An instance is built and lowered once
   and every solve patches the budget row and the dead nodes' bounds into
   copies; warm tokens carry their basis factors.  None of that may move
   a bit: these checks compare instance re-solves against freshly built
   models (x, duals, basis, solver counters), a reused factor against a
   fresh factorization, and the dense fallback stage against the patched
   LP it must solve. *)

let mica = Sensor.Mica2.default

let deployment ~seed ~n ~n_samples ~k =
  let rng = Rng.create seed in
  let layout = Sensor.Placement.uniform rng ~n ~width:200. ~height:200. () in
  let range = Sensor.Topology.min_connecting_range layout *. 1.25 in
  let topo = Sensor.Topology.build layout ~range in
  let cost = Sensor.Cost.of_mica2 topo mica in
  let field =
    Sampling.Field.random_gaussian rng ~n ~mean_lo:20. ~mean_hi:30.
      ~sigma_lo:1. ~sigma_hi:4.
  in
  let samples = Sampling.Sample_set.draw rng field ~k ~count:n_samples in
  let anchor =
    Prospector.Plan.expected_collection_mj topo cost
      (Prospector.Proof_exec.min_bandwidth_plan topo)
  in
  (topo, cost, samples, anchor, rng)

(* A mask killing a few random non-root nodes (and, by the tree, their
   subtrees), or everyone alive. *)
let random_alive rng topo =
  let n = topo.Sensor.Topology.n in
  let alive = Array.make n true in
  for _ = 1 to Rng.int rng 4 do
    let i = Rng.int rng n in
    if i <> topo.Sensor.Topology.root then alive.(i) <- false
  done;
  if Rng.int rng 3 = 0 then None else Some alive

let bits x = Int64.bits_of_float x

let check_floats what a b =
  Alcotest.(check int) (what ^ " length") (Array.length a) (Array.length b);
  Array.iteri
    (fun i x ->
      if not (Int64.equal (bits x) (bits b.(i))) then
        Alcotest.failf "%s.(%d): %h vs %h" what i x b.(i))
    a

let check_bool_array what a b =
  Alcotest.(check (list bool)) what (Array.to_list a) (Array.to_list b)

let stats_list (s : Lp.Revised.stats) =
  [ s.iterations; s.phase1_iterations; s.refactorizations;
    s.degenerate_pivots; s.bound_flips; s.drift_refactorizations;
    s.growth_refactorizations; s.ftran_steps; s.ftran_etas; s.btran_steps;
    s.btran_etas; s.lu_nnz; s.dual_iterations; s.dual_fallbacks ]

let check_results what (a : Lp.Revised.result) (b : Lp.Revised.result) =
  Alcotest.(check string) (what ^ " status")
    (Lp.Revised.(match a.status with Optimal -> "opt" | _ -> "other"))
    (Lp.Revised.(match b.status with Optimal -> "opt" | _ -> "other"));
  check_floats (what ^ " x") a.x b.x;
  check_floats (what ^ " duals") a.duals b.duals;
  Alcotest.(check (list int)) (what ^ " basis")
    (Array.to_list a.basis.vars) (Array.to_list b.basis.vars);
  check_bool_array (what ^ " at_upper") a.basis.at_upper b.basis.at_upper;
  Alcotest.(check (list int)) (what ^ " stats") (stats_list a.stats)
    (stats_list b.stats)

let check_problems what (a : Lp.Problem.t) (b : Lp.Problem.t) =
  Alcotest.(check (pair int int)) (what ^ " dims") (a.nrows, a.ncols)
    (b.nrows, b.ncols);
  check_floats (what ^ " rhs") a.rhs b.rhs;
  check_floats (what ^ " lower") a.lower b.lower;
  check_floats (what ^ " upper") a.upper b.upper;
  check_floats (what ^ " obj") a.obj b.obj;
  Array.iteri
    (fun j (c : Lp.Sparse_vec.t) ->
      let d = b.cols.(j) in
      Alcotest.(check (list int)) (what ^ " col idx") (Array.to_list c.idx)
        (Array.to_list d.idx);
      check_floats (what ^ " col value") c.value d.value)
    a.cols

let classes = [ ("n50", 50, 15, 10); ("n100", 100, 30, 20) ]

(* The instance's patched lowering is the fresh model's lowering, and a
   chain of warm re-solves over random budgets (0.3x to 2x) and alive
   masks gives the same x, duals, basis and counters whether it re-solves
   the instance with factor-carrying tokens or lowers a fresh model with
   plain tokens every time. *)
let test_resolve_equals_fresh () =
  List.iter
    (fun (cls, n, n_samples, k) ->
      let topo, cost, samples, anchor, rng =
        deployment ~seed:20060403 ~n ~n_samples ~k
      in
      let inst = Prospector.Lp_lf.instance topo cost samples ~k in
      let cell_basis = ref None and plain_basis = ref None in
      for step = 1 to 8 do
        let what = Printf.sprintf "%s step %d" cls step in
        let budget = anchor *. Rng.uniform rng ~lo:0.3 ~hi:2. in
        let alive = random_alive rng topo in
        let patched = Prospector.Lp_lf.problem ?alive inst ~budget in
        let fresh =
          Lp.Model.to_problem
            (Prospector.Lp_lf.lp_model ?alive topo cost samples ~budget ~k)
        in
        check_problems what patched fresh;
        let a, cell =
          match !cell_basis with
          | None -> Lp.Revised.solve_factored patched
          | Some (basis, cell) -> Lp.Revised.solve_factored ~basis ~cell patched
        in
        let b = Lp.Revised.solve ?basis:!plain_basis fresh in
        check_results what a b;
        cell_basis := Some (a.basis, cell);
        plain_basis := Some b.basis
      done)
    classes

(* The same through the planner API: the instance with its token chain
   against a fresh plan with its own. *)
let test_planner_resolve_equals_plan () =
  List.iter
    (fun (cls, n, n_samples, k) ->
      let topo, cost, samples, anchor, rng =
        deployment ~seed:7 ~n ~n_samples ~k
      in
      let inst = Prospector.Lp_lf.instance topo cost samples ~k in
      let warm_i = ref None and warm_p = ref None in
      for step = 1 to 6 do
        let what = Printf.sprintf "%s plan step %d" cls step in
        let budget = anchor *. Rng.uniform rng ~lo:0.3 ~hi:2. in
        let alive = random_alive rng topo in
        let a =
          Prospector.Lp_lf.solve ?alive ?warm_start:!warm_i inst ~budget
        in
        let b =
          Prospector.Lp_lf.plan ?alive ?warm_start:!warm_p topo cost samples
            ~budget ~k
        in
        check_floats (what ^ " fractional") a.fractional b.fractional;
        check_floats (what ^ " objective")
          [| a.lp_objective; a.budget_shadow_price |]
          [| b.lp_objective; b.budget_shadow_price |];
        (match (a.lp_stats, b.lp_stats) with
        | Some sa, Some sb ->
            Alcotest.(check (list int)) (what ^ " stats") (stats_list sa)
              (stats_list sb)
        | _ -> Alcotest.fail "revised solver did not run");
        warm_i := a.basis;
        warm_p := b.basis
      done)
    classes

(* The [factor_reused] attribute of the last [lp.revised] span while [f]
   runs under a trace sink. *)
let reused_under_trace f =
  let sink = Obs.Trace.create () in
  Obs.Trace.install (Some sink);
  let r = Fun.protect ~finally:(fun () -> Obs.Trace.install None) f in
  let spans =
    List.filter
      (fun (e : Obs.Trace.event) -> String.equal e.name "lp.revised")
      (Obs.Trace.events sink)
  in
  match List.rev spans with
  | e :: _ -> (
      match Obs.Trace.find_attr e "factor_reused" with
      | Some (Obs.Trace.Bool b) -> (r, b)
      | _ -> Alcotest.fail "lp.revised span lacks factor_reused")
  | [] -> Alcotest.fail "no lp.revised span"

let lp_result (r : Prospector.Lp_lf.result) =
  match r.lp_stats with
  | Some s -> (r.fractional, r.lp_objective, stats_list s)
  | None -> Alcotest.fail "revised solver did not run"

(* A token's factor is reused exactly when the basis columns match: on
   the instance it came from, and not after a window refresh that keeps
   the LP's shape but moves its columns.  A stale factor is refactored
   and gives the result of a token whose cell was never filled.  The
   budget is tight, so the first solve pivots away from the crash start
   and hands on a token with an empty cell (a 0-pivot solve would hand
   on its factor). *)
let test_token_after_window_refresh () =
  let topo, cost, samples, anchor, _ =
    deployment ~seed:20060403 ~n:50 ~n_samples:15 ~k:10
  in
  let k = 10 and budget = 0.5 *. anchor in
  let inst = Prospector.Lp_lf.instance topo cost samples ~k in
  let cold () =
    let r = Prospector.Lp_lf.solve inst ~budget in
    (match r.lp_stats with
    | Some s when s.iterations > 0 -> ()
    | _ -> Alcotest.fail "the first solve must pivot");
    match r.basis with
    | Some b -> b
    | None -> Alcotest.fail "no token"
  in
  let used = cold () and unused = cold () in
  let _, first = reused_under_trace (fun () ->
      Prospector.Lp_lf.solve ~warm_start:used inst ~budget) in
  let again, second = reused_under_trace (fun () ->
      Prospector.Lp_lf.solve ~warm_start:used inst ~budget) in
  Alcotest.(check bool) "first warm use factors" false first;
  Alcotest.(check bool) "second warm use reuses" true second;
  (match again.lp_stats with
  | Some s -> Alcotest.(check int) "0-pivot re-solve" 0 s.iterations
  | None -> Alcotest.fail "revised solver did not run");
  (* The 0-pivot re-solve hands its factor on to the token it returns. *)
  let next =
    match again.basis with Some b -> b | None -> Alcotest.fail "no token"
  in
  let _, handed = reused_under_trace (fun () ->
      Prospector.Lp_lf.solve ~warm_start:next inst ~budget:(budget *. 1.001)) in
  Alcotest.(check bool) "handed-on factor reused" true handed;
  (* The refreshed window: the same samples in reverse order, so the
     same LP shape with its y columns in other rows. *)
  let refreshed =
    Sampling.Sample_set.of_values ~k
      (Array.of_list (List.rev (Array.to_list samples.Sampling.Sample_set.values)))
  in
  let inst' = Prospector.Lp_lf.instance topo cost refreshed ~k in
  Alcotest.(check (pair int int)) "same shape"
    (Lp.Model.basis_shape used)
    (match (Prospector.Lp_lf.solve inst' ~budget).basis with
    | Some b -> Lp.Model.basis_shape b
    | None -> Alcotest.fail "no token");
  let stale, reused = reused_under_trace (fun () ->
      Prospector.Lp_lf.solve ~warm_start:used inst' ~budget) in
  Alcotest.(check bool) "stale factor not reused" false reused;
  let clean = Prospector.Lp_lf.solve ~warm_start:unused inst' ~budget in
  let fa, oa, sa = lp_result stale and fb, ob, sb = lp_result clean in
  check_floats "fractional" fa fb;
  check_floats "objective" [| oa |] [| ob |];
  Alcotest.(check (list int)) "stats" sa sb;
  (* The token's cell is filled once: it still holds the first window's
     factor, which the first instance reuses again. *)
  let _, back = reused_under_trace (fun () ->
      Prospector.Lp_lf.solve ~warm_start:used inst ~budget) in
  Alcotest.(check bool) "cell kept its first factor" true back

(* Revised level: a cell filled from other columns is not trusted, and the
   solve equals one without any cell. *)
let test_stale_cell_revised () =
  let topo, cost, samples, anchor, _ =
    deployment ~seed:3 ~n:50 ~n_samples:15 ~k:10
  in
  let k = 10 in
  let inst = Prospector.Lp_lf.instance topo cost samples ~k in
  let p1 = Prospector.Lp_lf.problem inst ~budget:anchor in
  let r1, cell = Lp.Revised.solve_factored p1 in
  (* Fill the cell from [p1] (a no-op if the solve already handed its
     factor on). *)
  ignore (Lp.Revised.solve_factored ~basis:r1.basis ~cell p1);
  (* Another cost model: same shape, other budget-row coefficients. *)
  let cost' =
    {
      cost with
      Sensor.Cost.per_value =
        Array.map (fun c -> c *. 1.5) cost.Sensor.Cost.per_value;
    }
  in
  let p2 =
    Prospector.Lp_lf.problem
      (Prospector.Lp_lf.instance topo cost' samples ~k)
      ~budget:anchor
  in
  let with_cell, _ = Lp.Revised.solve_factored ~basis:r1.basis ~cell p2 in
  let without = Lp.Revised.solve ~basis:r1.basis p2 in
  check_results "stale cell" with_cell without;
  let again, _ = Lp.Revised.solve_factored ~basis:r1.basis ~cell p1 in
  check_results "own cell" again (Lp.Revised.solve ~basis:r1.basis p1)

(* An expired deadline on an instance re-solve refuses the LP, and the
   greedy fallback plans at the patched budget and mask: the instance
   was built at budget 0 with everyone alive, and a fallback planned
   against that would be a silent wrong answer. *)
let test_masked_deadline_falls_back () =
  let topo, cost, samples, anchor, rng =
    deployment ~seed:17 ~n:16 ~n_samples:8 ~k:3
  in
  let k = 3 in
  let inst = Prospector.Lp_lf.instance topo cost samples ~k in
  let n = topo.Sensor.Topology.n and root = topo.Sensor.Topology.root in
  List.iter
    (fun factor ->
      let budget = anchor *. factor in
      let alive = Array.init n (fun i -> i = root || Rng.int rng 4 > 0) in
      let r = Prospector.Lp_lf.solve ~alive ~lp_deadline:0. inst ~budget in
      Alcotest.(check string) "greedy fallback" "fell-back-greedy"
        (Format.asprintf "%a" Prospector.Robust_plan.pp_provenance
           r.provenance);
      let colsum =
        Array.mapi
          (fun i c -> if alive.(i) then c else 0)
          samples.Sampling.Sample_set.colsum
      in
      let chosen, objective =
        Prospector.Greedy.fallback topo cost ~colsum ~budget
      in
      let expected = Prospector.Plan.of_chosen topo chosen in
      for i = 0 to n - 1 do
        Alcotest.(check int)
          (Printf.sprintf "budget %g: bandwidth at %d" budget i)
          (Prospector.Plan.bandwidth expected i)
          (Prospector.Plan.bandwidth r.plan i)
      done;
      Alcotest.(check int64) "greedy objective" (bits objective)
        (bits r.lp_objective))
    [ 0.5; 1.; 1.7 ]

(* A re-solve checks the matrix once per instance and the patched rhs
   and bounds every time: a NaN or infinite budget row, or a bound out of
   order or NaN, is refused with the text a freshly lowered problem gets,
   after the instance's matrix has been checked and shared. *)
let test_patched_refusals () =
  let topo, cost, samples, anchor, _ =
    deployment ~seed:5 ~n:50 ~n_samples:15 ~k:10
  in
  let k = 10 in
  let inst = Prospector.Lp_lf.instance topo cost samples ~k in
  ignore (Prospector.Lp_lf.solve inst ~budget:anchor);
  let shared = Prospector.Lp_lf.problem inst ~budget:anchor in
  let fresh () =
    Lp.Model.to_problem
      (Prospector.Lp_lf.lp_model topo cost samples ~budget:anchor ~k)
  in
  let refusal f =
    match f () with
    | _ -> Alcotest.fail "accepted"
    | exception Invalid_argument msg -> msg
  in
  let budget_row = shared.nrows - 1 in
  (* an activation variable: upper bound 1, as an alive node's z *)
  let z =
    let rec find j =
      if j >= shared.ncols then Alcotest.fail "no z column"
      else if shared.upper.(j) = 1. && shared.lower.(j) = 0. then j
      else find (j + 1)
    in
    find 0
  in
  let with_rhs x (p : Lp.Problem.t) =
    let rhs = Array.copy p.rhs in
    rhs.(budget_row) <- x;
    { p with rhs }
  and with_upper x (p : Lp.Problem.t) =
    let upper = Array.copy p.upper in
    upper.(z) <- x;
    { p with upper }
  in
  List.iter
    (fun (what, patch, expected) ->
      let want = refusal (fun () -> Lp.Revised.solve (patch (fresh ()))) in
      Alcotest.(check string) (what ^ " (fresh)") expected want;
      Alcotest.(check string) (what ^ " (shared matrix)") want
        (refusal (fun () -> Lp.Revised.solve (patch shared))))
    [
      ( "NaN budget",
        with_rhs Float.nan,
        Printf.sprintf "Problem: row %d has non-finite rhs nan" budget_row );
      ( "infinite budget",
        with_rhs infinity,
        Printf.sprintf "Problem: row %d has non-finite rhs inf" budget_row );
      ( "bound below lower",
        with_upper (-1.),
        Printf.sprintf "Problem: column %d has lower bound 0 > upper bound -1" z );
      ("NaN bound", with_upper Float.nan, Printf.sprintf "Problem: NaN bound on column %d" z);
    ];
  (* The planner-level checks come first and are unchanged. *)
  List.iter
    (fun budget ->
      Alcotest.(check string) "budget refused"
        (Printf.sprintf
           "Lp_lf.solve: budget must be a non-negative number, got %g" budget)
        (refusal (fun () -> Prospector.Lp_lf.solve inst ~budget)))
    [ Float.nan; -1. ];
  Alcotest.(check string) "alive mask refused"
    "Lp_lf.solve: alive mask length mismatch"
    (refusal (fun () ->
         Prospector.Lp_lf.solve ~alive:[| true |] inst ~budget:anchor))

(* Guarantee solves of one instance share its half-window instance: two
   of them build it once, where two fresh plans build it twice, and both
   answer bit for bit as the fresh plans do. *)
let test_ladder_shares_half_window () =
  let topo, cost, samples, anchor, _ =
    deployment ~seed:20060403 ~n:50 ~n_samples:16 ~k:10
  in
  let k = 10 and guarantee = (0.2, 0.2) in
  let builds f =
    let sink = Obs.Trace.create () in
    Obs.Trace.install (Some sink);
    let r = Fun.protect ~finally:(fun () -> Obs.Trace.install None) f in
    ( r,
      List.length
        (List.filter
           (fun (e : Obs.Trace.event) -> String.equal e.name "lp_lf.instance")
           (Obs.Trace.events sink)) )
  in
  let inst = Prospector.Lp_lf.instance topo cost samples ~k in
  let budgets = [ 0.8 *. anchor; 1.3 *. anchor ] in
  let shared, shared_builds =
    builds (fun () ->
        List.map (fun budget -> Prospector.Lp_lf.solve ~guarantee inst ~budget) budgets)
  in
  let fresh, fresh_builds =
    builds (fun () ->
        List.map
          (fun budget ->
            Prospector.Lp_lf.plan ~guarantee topo cost samples ~budget ~k)
          budgets)
  in
  Alcotest.(check int) "one half-window instance" 1 shared_builds;
  Alcotest.(check int) "fresh plans build one each" 2 fresh_builds;
  List.iter2
    (fun (a : Prospector.Lp_lf.result) (b : Prospector.Lp_lf.result) ->
      let fa, oa, sa = lp_result a and fb, ob, sb = lp_result b in
      check_floats "fractional" fa fb;
      check_floats "objective" [| oa |] [| ob |];
      Alcotest.(check (list int)) "stats" sa sb;
      match (a.guarantee, b.guarantee) with
      | Some ga, Some gb ->
          check_floats "certified lower"
            [| ga.Prospector.Guarantee.certified_lower |]
            [| gb.Prospector.Guarantee.certified_lower |]
      | _ -> Alcotest.fail "no guarantee")
    shared fresh

let () =
  Alcotest.run "lp-lf-instance"
    [
      ( "instance",
        [
          Alcotest.test_case "re-solve equals fresh model" `Quick
            test_resolve_equals_fresh;
          Alcotest.test_case "planner re-solve equals plan" `Quick
            test_planner_resolve_equals_plan;
          Alcotest.test_case "token after window refresh" `Quick
            test_token_after_window_refresh;
          Alcotest.test_case "stale cell at the revised level" `Quick
            test_stale_cell_revised;
          Alcotest.test_case "masked re-solve falls back" `Quick
            test_masked_deadline_falls_back;
          Alcotest.test_case "patched vectors refused as before" `Quick
            test_patched_refusals;
          Alcotest.test_case "guarantee solves share the half window" `Quick
            test_ladder_shares_half_window;
        ] );
    ]
