(* Warm re-solves against cold solves, over random rhs and bound
   perturbations.  A warm start from a basis that stays dual feasible
   runs the dual simplex; any other start takes the bound-relaxation
   phase 1.  Either way the result must be certified and its objective
   must match a cold solve of the same LP to 1e-9 relative: the optimal
   objective is unique even where the optimal vertex is not.  Each sweep
   also states how many of its cases the dual simplex solved, so that a
   change which quietly routes everything to the old path shows. *)

let rel_close a b =
  Float.abs (a -. b) <= 1e-9 *. (1. +. Float.max (Float.abs a) (Float.abs b))

let stats_of (sol : Lp.Model.solution) =
  match sol.Lp.Model.stats with
  | Some s -> s
  | None -> Alcotest.fail "revised solver did not run"

let status_name = function
  | Lp.Model.Optimal -> "optimal"
  | Lp.Model.Infeasible -> "infeasible"
  | Lp.Model.Unbounded -> "unbounded"
  | Lp.Model.Iteration_limit -> "iteration-limit"

(* A dual simplex that kept its basis dual feasible leaves nothing for
   the primal phase 2 that follows it: every pivot of such a solve is a
   dual pivot.  A ratio test that lets a reduced cost change sign fails
   this before it fails an objective. *)
let dual_ends_optimal ~what (s : Lp.Revised.stats) =
  if s.dual_iterations > 0 && s.dual_fallbacks = 0
     && s.iterations <> s.dual_iterations
  then
    Alcotest.failf "%s: %d primal pivots after %d dual pivots" what
      (s.iterations - s.dual_iterations) s.dual_iterations

(* A copy of [p] with every rhs and every finite structural bound moved
   at random; bounds stay ordered. *)
let perturb rng ~nvars (p : Lp.Problem.t) =
  let shift x = x +. Rng.uniform rng ~lo:(-2.) ~hi:2. in
  let rhs = Array.map shift p.rhs in
  let lower = Array.copy p.lower and upper = Array.copy p.upper in
  for j = 0 to nvars - 1 do
    if Rng.bool rng then begin
      let lo = Float.max 0. (shift lower.(j)) in
      lower.(j) <- lo;
      if upper.(j) < infinity then upper.(j) <- Float.max lo (shift upper.(j))
    end
  done;
  { p with rhs; lower; upper }

(* The 200-LP corpus of the revised-vs-dense differential test: each LP
   with an optimum is solved cold, then five perturbed copies are solved
   warm from that basis and cold.  Of the 119 copies with an optimum, 17
   take dual pivots (at least 1 in 8 must); the others mostly keep a
   primal feasible basis (the LPs have at most six rows).  Every copy
   without an optimum (26 of them) enters the dual path too, meets a
   dual-unbounded row and ends in a cold solve, which must agree on the
   verdict and whose stats must still count the dual fallback. *)
let test_corpus () =
  let cases = ref 0 and dual = ref 0 and no_optimum = ref 0 in
  let resolve ~seed ~nvars model basis rng =
    let problem = perturb rng ~nvars (Lp.Model.to_problem model) in
    let warm, wr = Lp.Model.solve_certified ~warm_start:basis ~problem model in
    let cold, cr = Lp.Model.solve_certified ~problem model in
    let s = stats_of warm in
    dual_ends_optimal ~what:(Printf.sprintf "seed %d" seed) s;
    if not (Lp.Model.status_equal warm.status cold.status) then
      Alcotest.failf "seed %d: warm %s vs cold %s" seed
        (status_name warm.status) (status_name cold.status);
    if not (Bool.equal wr.Lp.Certify.certified cr.Lp.Certify.certified) then
      Alcotest.failf "seed %d: certification differs" seed;
    if cold.status = Lp.Model.Optimal then begin
      incr cases;
      if s.dual_iterations > 0 then incr dual;
      if not wr.Lp.Certify.certified then
        Alcotest.failf "seed %d: warm optimum not certified" seed;
      if not (rel_close warm.objective cold.objective) then
        Alcotest.failf "seed %d: warm %.17g vs cold %.17g" seed warm.objective
          cold.objective
    end
    else begin
      incr no_optimum;
      if s.dual_fallbacks < 1 then
        Alcotest.failf "seed %d: cold fallback dropped the dual attempt" seed
    end
  in
  for seed = 0 to 199 do
    let spec = Lp_corpus.gen_spec (Rng.create seed) in
    let model = Lp_corpus.build_model spec in
    let first = Lp.Model.solve model in
    match (first.status, first.basis) with
    | Lp.Model.Optimal, Some basis ->
        let rng = Rng.create (50_000 + seed) in
        for _ = 1 to 5 do
          resolve ~seed ~nvars:(Array.length spec.lower) model basis rng
        done
    | _ -> ()
  done;
  Alcotest.(check int) "perturbed copies with an optimum" 119 !cases;
  Alcotest.(check int) "perturbed copies without one" 26 !no_optimum;
  Alcotest.(check bool)
    (Printf.sprintf "at least 1 in 8 by the dual simplex (%d)" !dual)
    true
    (!dual * 8 >= !cases)

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

let random_alive rng topo =
  let n = topo.Sensor.Topology.n in
  let alive = Array.make n true in
  for _ = 1 to Rng.int rng 4 do
    let i = Rng.int rng n in
    if i <> topo.Sensor.Topology.root then alive.(i) <- false
  done;
  if Rng.int rng 3 = 0 then None else Some alive

let lp_stats (r : Prospector.Lp_lf.result) =
  match r.lp_stats with
  | Some s -> s
  | None -> Alcotest.fail "revised solver did not run"

let certified (r : Prospector.Lp_lf.result) =
  match r.certify with Some rep -> rep.Lp.Certify.certified | None -> false

(* LP+LF instances at n = 50 and n = 100: a chain of re-solves at random
   budgets (0.3x to 2x) and alive masks, each warm from the previous
   token, against a cold solve of the same instance.  27 of the 36 warm
   re-solves take dual pivots (at least half must). *)
let test_lp_lf () =
  let cases = ref 0 and dual = ref 0 in
  List.iter
    (fun (seed, n, n_samples, k) ->
      let topo, cost, samples, anchor, rng =
        deployment ~seed ~n ~n_samples ~k
      in
      let inst = Prospector.Lp_lf.instance topo cost samples ~k in
      let warm = ref None in
      for step = 1 to 10 do
        let budget = anchor *. Rng.uniform rng ~lo:0.3 ~hi:2. in
        let alive = random_alive rng topo in
        let w = Prospector.Lp_lf.solve ?alive ?warm_start:!warm inst ~budget in
        let c = Prospector.Lp_lf.solve ?alive inst ~budget in
        if Option.is_some !warm then begin
          incr cases;
          let s = lp_stats w in
          dual_ends_optimal ~what:(Printf.sprintf "n=%d step %d" n step) s;
          if s.dual_iterations > 0 then incr dual
        end;
        if not (certified w && certified c) then
          Alcotest.failf "n=%d step %d: not certified" n step;
        if not (rel_close w.lp_objective c.lp_objective) then
          Alcotest.failf "n=%d step %d: warm %.17g vs cold %.17g" n step
            w.lp_objective c.lp_objective;
        warm := w.basis
      done)
    [ (20060403, 50, 15, 10); (7, 50, 15, 10); (20060403, 100, 30, 20);
      (11, 100, 30, 20) ];
  Alcotest.(check bool)
    (Printf.sprintf "dual simplex solved %d of %d" !dual !cases)
    true
    (!dual * 2 >= !cases)

let stats_list (s : Lp.Revised.stats) =
  [ s.iterations; s.phase1_iterations; s.dual_iterations; s.dual_fallbacks;
    s.refactorizations; s.bound_flips; s.ftran_steps; s.btran_steps;
    s.lu_nnz ]

(* A token whose basis is not dual feasible for the LP it meets takes the
   bound-relaxation phase 1, and still agrees with a cold solve.  A
   refreshed sample window changes the LP's shape or leaves the token's
   basis singular (such tokens go cold); refreshed per-value costs keep
   the shape and the nonzero pattern but move the budget row, so the old
   optimal basis may price out wrong.  Of the twelve (cost model, budget
   move) cases below, four meet a dual infeasible start and eight take
   the dual simplex.  (Which optimal basis the 0.5x token solve ends at
   is a matter of floating-point path on this degenerate LP: every case
   reaches the cold objective either way.) *)
let test_dual_infeasible_token () =
  let topo, cost, samples, anchor, _ =
    deployment ~seed:20060403 ~n:50 ~n_samples:15 ~k:10
  in
  let k = 10 in
  let inst = Prospector.Lp_lf.instance topo cost samples ~k in
  let old_path = ref 0 and dual = ref 0 in
  for t = 1 to 4 do
    let f = 1. +. (0.3 *. float_of_int t) in
    let per_value =
      Array.mapi
        (fun i c -> if i mod 2 = 0 then c *. f else c /. f)
        cost.Sensor.Cost.per_value
    in
    let inst' =
      Prospector.Lp_lf.instance topo { cost with Sensor.Cost.per_value } samples ~k
    in
    List.iter
      (fun (f0, f1) ->
        let token = (Prospector.Lp_lf.solve inst ~budget:(f0 *. anchor)).basis in
        let budget = f1 *. anchor in
        let w = Prospector.Lp_lf.solve ?warm_start:token inst' ~budget in
        let c = Prospector.Lp_lf.solve inst' ~budget in
        let s = lp_stats w in
        dual_ends_optimal ~what:(Printf.sprintf "costs %d" t) s;
        if s.dual_iterations = 0 && s.phase1_iterations > 0 then incr old_path;
        if s.dual_iterations > 0 then incr dual;
        if not (certified w && certified c) then
          Alcotest.failf "costs %d, budget %g: not certified" t f1;
        if not (rel_close w.lp_objective c.lp_objective) then
          Alcotest.failf "costs %d, budget %g: warm %.17g vs cold %.17g" t f1
            w.lp_objective c.lp_objective)
      [ (1., 0.5); (2., 0.4); (0.5, 1.5) ]
  done;
  Alcotest.(check (pair int int)) "phase-1 and dual starts" (4, 8)
    (!old_path, !dual)

(* The dual counters are exact: a chain of warm re-solves gives the same
   counts on a repeat, under a trace sink, and run from two domains at
   once on the shared instance. *)
let test_counters_exact () =
  let topo, cost, samples, anchor, _ =
    deployment ~seed:11 ~n:100 ~n_samples:30 ~k:20
  in
  let inst = Prospector.Lp_lf.instance topo cost samples ~k:20 in
  let chain () =
    let warm = ref None in
    List.map
      (fun f ->
        let r = Prospector.Lp_lf.solve ?warm_start:!warm inst ~budget:(f *. anchor) in
        warm := r.basis;
        stats_list (lp_stats r))
      [ 1.; 0.6; 1.4; 0.45; 1.9 ]
  in
  let first = chain () in
  let check what other =
    Alcotest.(check (list (list int))) what first other
  in
  check "repeat" (chain ());
  let sink = Obs.Trace.create () in
  Obs.Trace.install (Some sink);
  let traced = Fun.protect ~finally:(fun () -> Obs.Trace.install None) chain in
  check "trace on" traced;
  let spans =
    List.filter
      (fun (e : Obs.Trace.event) -> String.equal e.name "lp.revised")
      (Obs.Trace.events sink)
  in
  Alcotest.(check (list (option (float 0.))))
    "spans carry dual_iterations"
    (List.map (fun l -> Some (float_of_int (List.nth l 2))) first)
    (List.map (fun e -> Obs.Trace.number e "dual_iterations") spans);
  let d1 = Domain.spawn chain and d2 = Domain.spawn chain in
  check "domain 1" (Domain.join d1);
  check "domain 2" (Domain.join d2);
  Alcotest.(check bool) "the chain ran dual pivots" true
    (List.exists (fun l -> List.nth l 2 > 0) first)

(* The LP column of each node's bandwidth in an [Lp_lf.lp_model] model,
   from its variable names ("b<node>"); -1 for the root. *)
let bandwidth_columns n model =
  let cols = Array.make n (-1) in
  for v = 0 to Lp.Model.n_vars model - 1 do
    let nm = Lp.Model.var_name model (Lp.Model.var_of_index model v) in
    if String.length nm > 1 && Char.equal nm.[0] 'b' then
      Option.iter
        (fun node -> cols.(node) <- v)
        (int_of_string_opt (String.sub nm 1 (String.length nm - 1)))
  done;
  cols

let same_bits a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a b

(* The crash start against the all-slack basis, on LP+LF instances of
   the full window and of the guarantee ladder's planning half, at
   budgets 0.3x to 1.2x the minimum-bandwidth cost, under random alive
   masks.  Each crash-started solve must be certified optimal with the
   all-slack solve's objective (to 1e-9 relative).  The start travels
   with the lowering: the instance's patched problem and a freshly built
   [lp_model] of the same mask start alike and end bit for bit alike,
   and rounding that solve gives [Lp_lf.plan]'s plan.  The start is dual
   feasible under every mask, so each solve is either 0 pivots (the
   budget row holds: 11 of the 32 cases) or all dual pivots (21), with
   no fallback to phase 1. *)
let test_crash_start () =
  let cases = ref 0 and no_pivot = ref 0 and dual = ref 0 in
  let fallbacks = ref 0 in
  List.iter
    (fun (seed, n, n_samples, k) ->
      let topo, cost, samples, anchor, rng =
        deployment ~seed ~n ~n_samples ~k
      in
      let half =
        Sampling.Sample_set.slice samples ~offset:0 ~count:(n_samples / 2)
      in
      List.iter
        (fun (window, label) ->
          let inst = Prospector.Lp_lf.instance topo cost window ~k in
          List.iter
            (fun f ->
              let what = Printf.sprintf "seed %d n=%d %s %.1fx" seed n label f in
              let budget = f *. anchor in
              let alive = random_alive rng topo in
              let p = Prospector.Lp_lf.problem ?alive inst ~budget in
              let crash = Lp.Revised.solve p in
              let slack = Lp.Revised.solve { p with Lp.Problem.start = None } in
              if not (crash.status = Lp.Revised.Optimal
                      && slack.status = Lp.Revised.Optimal)
              then Alcotest.failf "%s: not optimal" what;
              let rep =
                Lp.Certify.certify_optimal p ~x:crash.x ~duals:crash.duals
              in
              if not rep.Lp.Certify.certified then
                Alcotest.failf "%s: crash optimum not certified" what;
              if not (rel_close crash.objective slack.objective) then
                Alcotest.failf "%s: crash %.17g vs all-slack %.17g" what
                  crash.objective slack.objective;
              let s = crash.stats in
              dual_ends_optimal ~what s;
              incr cases;
              if s.iterations = 0 then incr no_pivot;
              if s.dual_iterations > 0 then incr dual;
              if s.iterations <> s.dual_iterations then
                Alcotest.failf "%s: %d primal pivots from a dual feasible start"
                  what (s.iterations - s.dual_iterations);
              fallbacks := !fallbacks + s.dual_fallbacks;
              let model =
                Prospector.Lp_lf.lp_model ?alive topo cost window ~budget ~k
              in
              let replay = Lp.Revised.solve (Lp.Model.to_problem model) in
              if not (same_bits crash.x replay.x) then
                Alcotest.failf "%s: lp_model's lowering solves differently" what;
              let fractional =
                Array.map
                  (fun c -> if c < 0 then 0. else replay.x.(c))
                  (bandwidth_columns n model)
              in
              let planned =
                Prospector.Lp_lf.plan ?alive topo cost window ~budget ~k
              in
              if not (same_bits fractional planned.fractional) then
                Alcotest.failf "%s: replayed bandwidths differ from plan's" what;
              let plan = Prospector.Plan.of_fractional topo fractional in
              for i = 0 to n - 1 do
                if Prospector.Plan.bandwidth plan i
                   <> Prospector.Plan.bandwidth planned.plan i
                then Alcotest.failf "%s: replayed plan differs at node %d" what i
              done)
            [ 0.3; 0.5; 0.7; 1.2 ])
        [ (samples, "full"); (half, "half") ])
    [ (20060403, 50, 15, 10); (7, 50, 15, 10); (20060403, 100, 30, 20);
      (11, 100, 30, 20) ];
  Alcotest.(check (list int)) "cases, no pivot, dual simplex, fallbacks"
    [ 32; 11; 21; 0 ]
    [ !cases; !no_pivot; !dual; !fallbacks ]

let () =
  Alcotest.run "warm-dual"
    [
      ( "warm vs cold",
        [
          Alcotest.test_case "perturbed 200-LP corpus" `Quick test_corpus;
          Alcotest.test_case "LP+LF budgets and alive masks" `Quick test_lp_lf;
          Alcotest.test_case "dual infeasible token takes phase 1" `Quick
            test_dual_infeasible_token;
          Alcotest.test_case "dual counters are exact" `Quick
            test_counters_exact;
          Alcotest.test_case "crash start against the all-slack basis" `Quick
            test_crash_start;
        ] );
    ]
