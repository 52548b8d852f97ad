(* Budget ranging and the affine serving path, against the simplex.

   Differential: on the serving corpus (three n = 60, k = 6 tenants with
   16-sample windows, the shape of the serving benchmark's tenants), the
   segment of a certified basis answers random budgets inside its
   interval with the same point a warm re-solve from that basis reaches
   in 0 pivots (within 1e-9), the same rounded plan, and the objective of
   a cold solve (within 1e-9 relative); a budget just outside the
   interval is never served from it, and one a little further out needs
   a pivot, so the interval is not wider than the basis allows.

   Metamorphic: a sorted budget sweep served through segments and warm
   solves has a certified LP objective that never falls as the budget
   grows and is concave in it (the LP's optimal value is a concave
   function of a right-hand side). *)

let mica = Sensor.Mica2.default

type tenant = {
  topo : Sensor.Topology.t;
  cost : Sensor.Cost.t;
  samples : Sampling.Sample_set.t;
  base : float;
}

let corpus () =
  let n = 60 and k = 6 in
  let rng = Rng.create 25025 in
  List.init 3 (fun _ ->
      let layout = Sensor.Placement.uniform rng ~n ~width:200. ~height:200. () in
      let range = Sensor.Topology.min_connecting_range layout *. 1.2 in
      let topo = Sensor.Topology.build layout ~range in
      let cost = Sensor.Cost.of_mica2 topo mica in
      let field =
        Sampling.Field.random_gaussian rng ~n ~mean_lo:20. ~mean_hi:30.
          ~sigma_lo:1. ~sigma_hi:4.
      in
      let samples = Sampling.Sample_set.draw rng field ~k ~count:16 in
      let base =
        0.55
        *. Prospector.Plan.expected_collection_mj topo cost
             (Prospector.Proof_exec.min_bandwidth_plan topo)
      in
      { topo; cost; samples; base })

let k = 6

let bandwidths (p : Prospector.Plan.t) = Array.to_list p.Prospector.Plan.bandwidth

let iterations (s : Lp.Revised.stats option) =
  match s with Some s -> s.Lp.Revised.iterations | None -> -1

let close ~tol a b = Float.abs (a -. b) <= tol *. (1. +. Float.abs b)

let test_differential () =
  let rng = Rng.create 7 in
  let served = ref 0 and finite = ref 0 and pivoted = ref 0 in
  List.iter
    (fun t ->
      let inst = Prospector.Lp_lf.instance t.topo t.cost t.samples ~k in
      (* a bare model of the instance's shape, for the raw solution
         vectors of both paths *)
      let model =
        Prospector.Lp_lf.lp_model t.topo t.cost t.samples ~budget:t.base ~k
      in
      List.iter
        (fun f ->
          let anchor = f *. t.base in
          let cold = Prospector.Lp_lf.solve inst ~budget:anchor in
          let seg =
            match Prospector.Lp_lf.segment inst cold with
            | Some s -> s
            | None -> Alcotest.failf "no segment at %.3f base" f
          in
          let lo, hi = Lp.Model.segment_bounds seg in
          Alcotest.(check bool) "anchor inside" true (lo <= anchor && anchor <= hi);
          let lo' = Float.max lo 0. and hi' = Float.min hi (2. *. anchor) in
          for _ = 1 to 4 do
            let budget = Rng.uniform rng ~lo:lo' ~hi:hi' in
            let problem = Prospector.Lp_lf.problem inst ~budget in
            let affine =
              match Lp.Model.affine_certified ~problem model seg with
              | Ok (sol, _) -> sol
              | Error r ->
                  Alcotest.failf "affine point at %g in [%g, %g] refused: %s"
                    budget lo hi (String.concat "; " r.Lp.Certify.reasons)
            in
            let warm, _ =
              Lp.Model.solve_certified
                ~warm_start:(Lp.Model.segment_basis seg) ~problem model
            in
            Alcotest.(check int) "warm re-solve takes 0 pivots" 0
              (iterations warm.Lp.Model.stats);
            Array.iteri
              (fun j v ->
                if Float.abs (v -. warm.Lp.Model.values.(j)) > 1e-9 then
                  Alcotest.failf "x_%d: affine %.17g, warm %.17g" j v
                    warm.Lp.Model.values.(j))
              affine.Lp.Model.values;
            let r =
              match Prospector.Lp_lf.solve_segment inst seg ~budget with
              | Some r -> r
              | None -> Alcotest.fail "solve_segment refused a certified point"
            in
            let w =
              Prospector.Lp_lf.solve
                ~warm_start:(Lp.Model.segment_basis seg) inst ~budget
            in
            Alcotest.(check (list int)) "same rounded plan" (bandwidths w.plan)
              (bandwidths r.plan);
            Alcotest.(check (float 0.)) "served at its budget" budget r.lp_budget;
            Alcotest.(check bool) "no simplex ran" true (Option.is_none r.lp_stats);
            let c = Prospector.Lp_lf.solve inst ~budget in
            if not (close ~tol:1e-9 r.lp_objective c.lp_objective) then
              Alcotest.failf "objective %.17g, cold %.17g" r.lp_objective
                c.lp_objective;
            incr served
          done;
          (* never served from the segment just outside it *)
          let set = Serve.Segment_set.create ~capacity:4 in
          Serve.Segment_set.insert set ~lo ~hi seg;
          let from_segment b =
            match Serve.Segment_set.lookup set ~budget:b with
            | Serve.Segment_set.Containing _ -> true
            | Serve.Segment_set.Nearest _ | Serve.Segment_set.Empty -> false
          in
          Alcotest.(check bool) "hi is served" true (from_segment hi);
          Alcotest.(check bool) "lo is served" true (from_segment lo);
          if hi < infinity then begin
            incr finite;
            Alcotest.(check bool) "just above hi is not" false
              (from_segment (Float.succ hi));
            (* a little further out, the basis is no longer feasible *)
            let out = hi +. (1e-3 *. Float.max 1. hi) in
            let w =
              Prospector.Lp_lf.solve
                ~warm_start:(Lp.Model.segment_basis seg) inst ~budget:out
            in
            if iterations w.lp_stats > 0 then incr pivoted
          end;
          if lo > neg_infinity then
            Alcotest.(check bool) "just below lo is not" false
              (from_segment (Float.pred lo)))
        [ 0.8; 0.9; 1.0; 1.1; 1.2 ])
    (corpus ());
  Alcotest.(check int) "affine points checked" 60 !served;
  (* every finite upper end is tight: past it the basis must pivot *)
  Alcotest.(check bool) "some segments end below 2x the anchor" true (!finite > 0);
  Alcotest.(check int) "every finite segment pivots past hi" !finite !pivoted

(* The LP's optimal value is concave and non-decreasing in the budget;
   every objective served along a sorted sweep — affine points, warm and
   cold solves — must show it. *)
let test_sweep_concave () =
  List.iter
    (fun t ->
      let srv =
        Serve.Server.create
          ~config:
            { Serve.Server.default_config with cache_capacity = 0; batch = 4 }
          ()
      in
      ignore (Serve.Server.register srv t.topo t.cost t.samples);
      let budgets =
        Array.init 41 (fun i -> t.base *. (0.5 +. (0.025 *. float_of_int i)))
      in
      let out =
        Serve.Server.run srv
          (Array.map (fun b -> Serve.Server.query ~network:0 ~k b) budgets)
      in
      let obj =
        Array.map
          (function
            | Serve.Server.Served r ->
                Alcotest.(check bool) "certified" true r.certify.Lp.Certify.certified;
                r.objective
            | Serve.Server.Refused why -> Alcotest.failf "refused: %s" why)
          out
      in
      let s = Serve.Server.stats srv in
      Alcotest.(check bool) "the sweep used segments" true (s.range_hits > 0);
      Alcotest.(check bool) "and warm solves" true (s.pool_hits > 0);
      let tol a = 1e-9 *. (1. +. Float.abs a) in
      for i = 1 to Array.length obj - 1 do
        if obj.(i) < obj.(i - 1) -. tol obj.(i - 1) then
          Alcotest.failf "objective fell: %.17g at %g after %.17g" obj.(i)
            budgets.(i) obj.(i - 1)
      done;
      for i = 1 to Array.length obj - 2 do
        let b0 = budgets.(i - 1) and b1 = budgets.(i) and b2 = budgets.(i + 1) in
        let chord =
          obj.(i - 1) +. ((b1 -. b0) /. (b2 -. b0) *. (obj.(i + 1) -. obj.(i - 1)))
        in
        if obj.(i) < chord -. tol chord then
          Alcotest.failf "not concave at %g: %.17g below the chord %.17g" b1
            obj.(i) chord
      done)
    (corpus ())

let () =
  Alcotest.run "budget_ranging"
    [
      ( "ranging",
        [
          Alcotest.test_case "affine points equal 0-pivot warm re-solves" `Quick
            test_differential;
          Alcotest.test_case "sorted sweep objective is monotone and concave"
            `Quick test_sweep_concave;
        ] );
    ]
