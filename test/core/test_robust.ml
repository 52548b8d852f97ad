(* Solver-failure injection at the planner level: every LP planner is run
   with a crippled solver budget and must still return a valid, executable
   plan with honest provenance — the certified chain
   (revised -> certify -> greedy) at work.  Also covers an expired
   wall-clock deadline (no other solver takes over: the plan is the
   greedy one) and {!Replan}'s rule that an uncertified candidate is
   never disseminated. *)

let mica = Sensor.Mica2.default

let random_tree rng n =
  let parent = Array.init n (fun i -> if i = 0 then -1 else Rng.int rng i) in
  Sensor.Topology.of_parents ~root:0 parent

let small_instance seed =
  let rng = Rng.create seed in
  let n = 4 + Rng.int rng 14 in
  let k = 1 + Rng.int rng 4 in
  let topo = random_tree rng n in
  let cost = Sensor.Cost.of_mica2 topo mica in
  let f =
    Sampling.Field.random_gaussian rng ~n ~mean_lo:10. ~mean_hi:30.
      ~sigma_lo:0.5 ~sigma_hi:5.
  in
  let samples = Sampling.Sample_set.draw rng f ~k ~count:8 in
  (topo, cost, samples, k, rng)

let is_provenance = Alcotest.testable Prospector.Robust_plan.pp_provenance
    Prospector.Robust_plan.provenance_equal

(* A plan is executable when [Exec.collect] accepts it and answers within
   the query size on a fresh epoch. *)
let assert_executable name topo cost plan ~k rng =
  let n = topo.Sensor.Topology.n in
  let readings = Array.init n (fun _ -> Rng.gaussian rng ~mu:20. ~sigma:5.) in
  let o = Prospector.Exec.collect topo cost plan ~k ~readings in
  Alcotest.(check bool)
    (name ^ ": answer within k") true
    (List.length o.Prospector.Exec.returned <= k);
  Alcotest.(check bool)
    (name ^ ": collection cost finite") true
    (Float.is_finite o.Prospector.Exec.collection_mj)

(* ---- healthy solver: everything is certified-revised ---- *)

let test_healthy_provenance () =
  let topo, cost, samples, k, _ = small_instance 7 in
  let budget = 25. in
  let a = Prospector.Lp_no_lf.plan topo cost samples ~budget in
  Alcotest.check is_provenance "lp_no_lf" Prospector.Robust_plan.Certified_revised
    a.Prospector.Lp_no_lf.provenance;
  let b = Prospector.Lp_lf.plan topo cost samples ~budget ~k in
  Alcotest.check is_provenance "lp_lf" Prospector.Robust_plan.Certified_revised
    b.Prospector.Lp_lf.provenance;
  let c = Prospector.Lp_proof.plan topo cost samples ~budget:1e6 ~k in
  Alcotest.check is_provenance "lp_proof"
    Prospector.Robust_plan.Certified_revised c.Prospector.Lp_proof.provenance;
  let answers = Sampling.Answers.top_k ~k samples.Sampling.Sample_set.values in
  let d = Prospector.Subset_planner.plan topo cost answers ~budget in
  Alcotest.check is_provenance "subset"
    Prospector.Robust_plan.Certified_revised
    d.Prospector.Subset_planner.provenance

(* ---- crippled solver: every planner falls back, none crashes ---- *)

let test_crippled_planners_fall_back () =
  let topo, cost, samples, k, rng = small_instance 11 in
  let budget = 25. in
  let a =
    Prospector.Lp_no_lf.plan ~max_lp_iterations:0 topo cost samples ~budget
  in
  Alcotest.check is_provenance "lp_no_lf fell back"
    Prospector.Robust_plan.Fell_back_greedy a.Prospector.Lp_no_lf.provenance;
  assert_executable "lp_no_lf" topo cost a.Prospector.Lp_no_lf.plan ~k rng;
  let b =
    Prospector.Lp_lf.plan ~max_lp_iterations:0 topo cost samples ~budget ~k
  in
  Alcotest.check is_provenance "lp_lf fell back"
    Prospector.Robust_plan.Fell_back_greedy b.Prospector.Lp_lf.provenance;
  assert_executable "lp_lf" topo cost b.Prospector.Lp_lf.plan ~k rng;
  let c =
    Prospector.Lp_proof.plan ~max_lp_iterations:0 topo cost samples
      ~budget:1e6 ~k
  in
  Alcotest.check is_provenance "lp_proof fell back"
    Prospector.Robust_plan.Fell_back_greedy c.Prospector.Lp_proof.provenance;
  (* Proof fallback must still be a valid proof plan: bandwidth >= 1 on
     every edge. *)
  let root = topo.Sensor.Topology.root in
  for i = 0 to topo.Sensor.Topology.n - 1 do
    if i <> root then
      Alcotest.(check bool) "proof bandwidth >= 1" true
        (Prospector.Plan.bandwidth c.Prospector.Lp_proof.plan i >= 1)
  done;
  let answers = Sampling.Answers.top_k ~k samples.Sampling.Sample_set.values in
  let d =
    Prospector.Subset_planner.plan ~max_lp_iterations:0 topo cost answers
      ~budget
  in
  Alcotest.check is_provenance "subset fell back"
    Prospector.Robust_plan.Fell_back_greedy
    d.Prospector.Subset_planner.provenance;
  assert_executable "subset" topo cost d.Prospector.Subset_planner.plan ~k rng

let test_crippled_matches_greedy () =
  (* The LP-LF fallback is exactly the greedy plan: same selection, same
     bandwidths. *)
  let topo, cost, samples, k, _ = small_instance 13 in
  let budget = 20. in
  let g = Prospector.Greedy.plan topo cost samples ~budget in
  let r =
    Prospector.Lp_lf.plan ~max_lp_iterations:0 topo cost samples ~budget ~k
  in
  for i = 0 to topo.Sensor.Topology.n - 1 do
    Alcotest.(check int)
      (Printf.sprintf "bandwidth at %d" i)
      (Prospector.Plan.bandwidth g i)
      (Prospector.Plan.bandwidth r.Prospector.Lp_lf.plan i)
  done

(* ---- an expired deadline: revised or refuse, then greedy ---- *)

let test_expired_deadline_falls_back () =
  let topo, cost, samples, k, _ = small_instance 17 in
  let budget = 25. in
  let healthy = Prospector.Lp_lf.plan topo cost samples ~budget ~k in
  Alcotest.check is_provenance "healthy solve certified"
    Prospector.Robust_plan.Certified_revised
    healthy.Prospector.Lp_lf.provenance;
  (* An expired wall-clock deadline stops the revised solver before its
     first pivot, and no other solver runs after it. *)
  let r = Prospector.Lp_lf.plan ~lp_deadline:0. topo cost samples ~budget ~k in
  Alcotest.check is_provenance "greedy fallback"
    Prospector.Robust_plan.Fell_back_greedy r.Prospector.Lp_lf.provenance;
  Alcotest.(check bool) "no certificate" true
    (Option.is_none r.Prospector.Lp_lf.certify);
  let g = Prospector.Greedy.plan topo cost samples ~budget in
  for i = 0 to topo.Sensor.Topology.n - 1 do
    Alcotest.(check int)
      (Printf.sprintf "bandwidth at %d" i)
      (Prospector.Plan.bandwidth g i)
      (Prospector.Plan.bandwidth r.Prospector.Lp_lf.plan i)
  done

(* ---- Robust_plan.solve itself ---- *)

let test_robust_solve_outcomes () =
  let feasible () =
    let m = Lp.Model.create ~direction:Lp.Model.Maximize () in
    let x = Lp.Model.add_var m ~upper:2. ~obj:1. "x" in
    Lp.Model.add_le m [ (1., x) ] 1.5;
    m
  in
  (match Prospector.Robust_plan.solve (feasible ()) with
  | Ok r ->
      Alcotest.(check bool) "certified" true
        r.Prospector.Robust_plan.report.Lp.Certify.certified;
      Alcotest.(check (float 1e-6)) "objective" 1.5
        r.Prospector.Robust_plan.solution.Lp.Model.objective
  | Error _ -> Alcotest.fail "expected a certified solution");
  (match Prospector.Robust_plan.solve ~max_iterations:0 (feasible ()) with
  | Error (Prospector.Robust_plan.No_certified_solution reasons) ->
      Alcotest.(check bool) "reasons recorded" true (reasons <> [])
  | Ok _ -> Alcotest.fail "crippled chain cannot certify"
  | Error _ -> Alcotest.fail "wrong failure");
  (* An expired deadline refuses with the revised solve's own reason:
     nothing else is tried. *)
  (match Prospector.Robust_plan.solve ~deadline:0. (feasible ()) with
  | Error (Prospector.Robust_plan.No_certified_solution reasons) ->
      Alcotest.(check (list string)) "the revised reason only"
        [ "iteration/time budget exhausted before optimality" ] reasons
  | Ok _ -> Alcotest.fail "an expired deadline cannot certify"
  | Error _ -> Alcotest.fail "wrong failure");
  let infeasible = Lp.Model.create () in
  let x = Lp.Model.add_var infeasible ~obj:1. "x" in
  Lp.Model.add_ge infeasible [ (1., x) ] 2.;
  Lp.Model.add_le infeasible [ (1., x) ] 1.;
  match Prospector.Robust_plan.solve infeasible with
  | Error (Prospector.Robust_plan.Proved_infeasible report) ->
      Alcotest.(check bool) "farkas certified" true
        report.Lp.Certify.certified
  | _ -> Alcotest.fail "expected a proved infeasibility"

(* ---- Replan: uncertified candidates are never disseminated ---- *)

let test_replan_never_ships_uncertified () =
  let topo, cost, samples, k, _ = small_instance 23 in
  let budget = 25. in
  let empty = Prospector.Plan.make topo (Array.make topo.Sensor.Topology.n 0) in
  (* Sanity: with a healthy solver and a hopeless incumbent the candidate
     is disseminated. *)
  let rp = Prospector.Replan.create ~min_gain:0.01 ~initial:empty () in
  (match Prospector.Replan.consider rp topo cost mica samples ~k ~budget with
  | Prospector.Replan.Disseminated _ -> ()
  | Prospector.Replan.Kept ->
      Alcotest.fail "healthy candidate should be disseminated");
  Alcotest.(check int) "one replan" 1 (Prospector.Replan.replans rp);
  (* Same setup, crippled solver: the greedy fallback may be a fine plan,
     but it is uncertified — never disseminated. *)
  let rp = Prospector.Replan.create ~min_gain:0.01 ~initial:empty () in
  (match
     Prospector.Replan.consider ~max_lp_iterations:0 rp topo cost mica samples
       ~k ~budget
   with
  | Prospector.Replan.Kept -> ()
  | Prospector.Replan.Disseminated _ ->
      Alcotest.fail "uncertified candidate must not be disseminated");
  Alcotest.(check int) "no replans" 0 (Prospector.Replan.replans rp);
  (* The warm-start token from a certified solve survives a crippled
     epoch: the next healthy consider still disseminates. *)
  let rp = Prospector.Replan.create ~min_gain:0.01 ~initial:empty () in
  ignore (Prospector.Replan.consider rp topo cost mica samples ~k ~budget);
  (match
     Prospector.Replan.consider ~max_lp_iterations:0 rp topo cost mica samples
       ~k ~budget
   with
  | Prospector.Replan.Kept -> ()
  | Prospector.Replan.Disseminated _ -> Alcotest.fail "crippled epoch shipped");
  let rp2 = Prospector.Replan.create ~min_gain:0.01 ~initial:empty () in
  match Prospector.Replan.consider rp2 topo cost mica samples ~k ~budget with
  | Prospector.Replan.Disseminated _ -> ()
  | Prospector.Replan.Kept -> Alcotest.fail "healthy epoch after crippled one"

(* ---- randomized sweep: no budget, however hostile, crashes a planner ---- *)

let crippled_sweep =
  QCheck.Test.make ~name:"planners never crash under any solver budget"
    ~count:40
    (QCheck.make ~print:string_of_int QCheck.Gen.(0 -- 100_000))
    (fun seed ->
      let topo, cost, samples, k, rng = small_instance seed in
      let budget = Rng.float rng 40. in
      let iters = Rng.int rng 8 in
      let a =
        Prospector.Lp_no_lf.plan ~max_lp_iterations:iters topo cost samples
          ~budget
      in
      let b =
        Prospector.Lp_lf.plan ~max_lp_iterations:iters topo cost samples
          ~budget ~k
      in
      (* Whatever the provenance, the plans execute. *)
      let readings =
        Array.init topo.Sensor.Topology.n (fun _ ->
            Rng.gaussian rng ~mu:20. ~sigma:5.)
      in
      let oa =
        Prospector.Exec.collect topo cost a.Prospector.Lp_no_lf.plan ~k
          ~readings
      in
      let ob =
        Prospector.Exec.collect topo cost b.Prospector.Lp_lf.plan ~k ~readings
      in
      List.length oa.Prospector.Exec.returned <= k
      && List.length ob.Prospector.Exec.returned <= k)

let () =
  Alcotest.run "robust-plan"
    [
      ( "fallback-chain",
        [
          Alcotest.test_case "healthy provenance" `Quick
            test_healthy_provenance;
          Alcotest.test_case "crippled planners fall back" `Quick
            test_crippled_planners_fall_back;
          Alcotest.test_case "fallback matches greedy" `Quick
            test_crippled_matches_greedy;
          Alcotest.test_case "expired deadline falls back" `Quick
            test_expired_deadline_falls_back;
          Alcotest.test_case "robust solve outcomes" `Quick
            test_robust_solve_outcomes;
          Alcotest.test_case "replan never ships uncertified" `Quick
            test_replan_never_ships_uncertified;
        ]
        @ List.map QCheck_alcotest.to_alcotest [ crippled_sweep ] );
    ]
