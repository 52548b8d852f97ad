(* Statistical bound-violation harness for the certified (eps, delta)
   guarantees (Guarantee, Robust_plan.plan_with_guarantee, Lp_lf ?guarantee).

   The headline test is a cross-seed adversarial sweep: GUARANTEE_SEEDS
   seeds (default 200, shifted by GUARANTEE_SEED_OFFSET so CI can rotate
   the seed window across runs) x three value-field families chosen to
   stress different bound families:

   - heavy-tail: per-node lognormal readings, so single epochs are
     dominated by outliers and per-sample accuracy is noisy;
   - correlated: a multivariate normal with an exponential kernel, so
     neighbouring nodes trade places in the top k together;
   - adversarially permuted: a fixed descending value ladder assigned to
     nodes by a fresh uniform permutation each epoch — every node is
     equally likely to hold any rank, the worst case for a sample-based
     planner.

   Each trial plans through the full machinery (split window, per-rung
   delta, LP-gap folding) and then measures the plan's true expected
   accuracy on a large fresh holdout.  A violation is counted only when
   the holdout mean undercuts the certified lower bound by more than the
   holdout's own estimation slack (a Hoeffding interval at delta = 1e-9),
   so the assertion "zero violations" is statistical but engineered not
   to flake: with the sweep's delta = 1e-4 per trial the union failure
   probability over 600 trials is ~6e-2 in the worst case the bound
   allows, and orders of magnitude lower for the concentrated accuracy
   distributions actually produced.  When GUARANTEE_SUMMARY is set the
   sweep writes a JSON artifact with per-family tallies for CI. *)

let mica = Sensor.Mica2.default

let random_tree rng n =
  let parent = Array.init n (fun i -> if i = 0 then -1 else Rng.int rng i) in
  Sensor.Topology.of_parents ~root:0 parent

let env_int name default =
  match Sys.getenv_opt name with
  | Some s -> ( match int_of_string_opt s with Some v -> v | None -> default)
  | None -> default

let n_seeds = env_int "GUARANTEE_SEEDS" 200
let seed_offset = env_int "GUARANTEE_SEED_OFFSET" 0

(* Per-trial certification target: eps is trivial (any bound attains it at
   rung 0) so the sweep exercises the machinery without forcing the full
   escalation ladder on every trial, while delta = 1e-4 keeps the claimed
   failure probability small enough that "zero violations" is a sound
   assertion over the whole sweep. *)
let target_eps = 0.999
let target_delta = 1e-4

(* Ground-truth holdout: fresh epochs from the same field, never seen by
   the planner.  Its own estimation error is covered by a Hoeffding
   interval at a failure probability far below the sweep's. *)
let holdout_epochs = 400
let holdout_delta = 1e-9

(* ---------- adversarial field families ---------- *)

let heavy_tail rng n =
  let scale = Array.init n (fun _ -> 5. +. Rng.float rng 10.) in
  {
    Sampling.Field.n;
    draw =
      (fun rng ->
        Array.init n (fun i ->
            scale.(i) *. exp (Rng.gaussian rng ~mu:0. ~sigma:1.3)));
    describe = "heavy-tail lognormal";
  }

let correlated rng n =
  let means = Array.init n (fun _ -> 15. +. Rng.float rng 10.) in
  let covariance =
    Array.init n (fun i ->
        Array.init n (fun j ->
            (6. *. exp (-.Float.abs (float_of_int (i - j)) /. 4.))
            +. if i = j then 0.5 else 0.))
  in
  Sampling.Mvn.field ~means ~covariance

let adversarial_permuted rng n =
  let top = 30. +. Rng.float rng 20. in
  let ladder = Array.init n (fun r -> top -. (2. *. float_of_int r)) in
  {
    Sampling.Field.n;
    draw =
      (fun rng ->
        let perm = Array.init n Fun.id in
        Rng.shuffle rng perm;
        let out = Array.make n 0. in
        Array.iteri
          (fun r node ->
            out.(node) <- ladder.(r) +. Rng.gaussian rng ~mu:0. ~sigma:0.2)
          perm;
        out);
    describe = "adversarially permuted ladder";
  }

let families =
  [
    ("heavy-tail", heavy_tail);
    ("correlated", correlated);
    ("adversarial-permuted", adversarial_permuted);
  ]

(* ---------- the sweep ---------- *)

type family_stats = {
  name : string;
  mutable trials : int;
  mutable violations : int;
  mutable informative : int;  (** trials whose certified lower bound > 0 *)
  mutable target_met : int;
  mutable sum_eps : float;
  mutable sum_lower : float;
  mutable sum_emp : float;
  mutable sum_true : float;
}

let holdout_slack =
  Prospector.Guarantee.hoeffding_slack ~m:holdout_epochs ~delta:holdout_delta

let run_trial ~family_ix ~make_field seed =
  let rng = Rng.create ((seed * 8) + family_ix + 0x5151) in
  let n = 8 + Rng.int rng 7 in
  let k = 1 + Rng.int rng 3 in
  let m = 80 + Rng.int rng 41 in
  let topo = random_tree rng n in
  let cost = Sensor.Cost.of_mica2 topo mica in
  let field = make_field rng n in
  let train = Sampling.Sample_set.draw rng field ~k ~count:m in
  (* Budgets span starved to comfortable so the sweep certifies lossy
     plans (where a bad bound could actually be caught) as well as
     near-perfect ones. *)
  let budget = 4. +. Rng.float rng 32. in
  let r =
    Prospector.Lp_lf.plan ~guarantee:(target_eps, target_delta) topo cost train
      ~budget ~k
  in
  let g =
    match r.Prospector.Lp_lf.guarantee with
    | Some g -> g
    | None -> Alcotest.fail "?guarantee plan carries no Guarantee.t"
  in
  (* Every emitted bound must be machine-checkable and survive a JSON
     round-trip bit-for-bit. *)
  (match Prospector.Guarantee.validate g with
  | Ok () -> ()
  | Error reason -> Alcotest.fail ("invalid guarantee: " ^ reason));
  (match Prospector.Guarantee.of_json (Prospector.Guarantee.to_json g) with
  | Some g' when Prospector.Guarantee.equal g g' -> ()
  | Some _ -> Alcotest.fail "guarantee JSON round-trip changed the record"
  | None -> Alcotest.fail "guarantee JSON did not parse back");
  let acc = ref 0. in
  for _ = 1 to holdout_epochs do
    let readings = field.Sampling.Field.draw rng in
    let o =
      Prospector.Exec.collect topo cost r.Prospector.Lp_lf.plan ~k ~readings
    in
    acc := !acc +. Prospector.Exec.accuracy ~k ~readings o.Prospector.Exec.returned
  done;
  let true_acc = !acc /. float_of_int holdout_epochs in
  let violated =
    not
      (Prospector.Guarantee.holds_against g
         ~observed_accuracy:(true_acc +. holdout_slack))
  in
  (g, true_acc, violated)

let run_family family_ix (name, make_field) =
  let s =
    {
      name;
      trials = 0;
      violations = 0;
      informative = 0;
      target_met = 0;
      sum_eps = 0.;
      sum_lower = 0.;
      sum_emp = 0.;
      sum_true = 0.;
    }
  in
  for i = 0 to n_seeds - 1 do
    let g, true_acc, violated =
      run_trial ~family_ix ~make_field (seed_offset + i)
    in
    s.trials <- s.trials + 1;
    if violated then s.violations <- s.violations + 1;
    if g.Prospector.Guarantee.certified_lower > 0. then
      s.informative <- s.informative + 1;
    if Prospector.Guarantee.meets g ~eps:target_eps ~delta:target_delta then
      s.target_met <- s.target_met + 1;
    s.sum_eps <- s.sum_eps +. g.Prospector.Guarantee.eps;
    s.sum_lower <- s.sum_lower +. g.Prospector.Guarantee.certified_lower;
    s.sum_emp <- s.sum_emp +. g.Prospector.Guarantee.empirical_accuracy;
    s.sum_true <- s.sum_true +. true_acc
  done;
  s

let summary_json stats =
  let mean total s = if s.trials = 0 then 0. else total /. float_of_int s.trials in
  Obs.Json.Obj
    [
      ("schema", Obs.Json.Str "guarantee-sweep/1");
      ("seeds", Obs.Json.Num (float_of_int n_seeds));
      ("seed_offset", Obs.Json.Num (float_of_int seed_offset));
      ("target_eps", Obs.Json.Num target_eps);
      ("target_delta", Obs.Json.Num target_delta);
      ( "holdout",
        Obs.Json.Obj
          [
            ("epochs", Obs.Json.Num (float_of_int holdout_epochs));
            ("delta", Obs.Json.Num holdout_delta);
            ("slack", Obs.Json.Num holdout_slack);
          ] );
      ( "families",
        Obs.Json.List
          (List.map
             (fun s ->
               Obs.Json.Obj
                 [
                   ("name", Obs.Json.Str s.name);
                   ("trials", Obs.Json.Num (float_of_int s.trials));
                   ("violations", Obs.Json.Num (float_of_int s.violations));
                   ("informative", Obs.Json.Num (float_of_int s.informative));
                   ("target_met", Obs.Json.Num (float_of_int s.target_met));
                   ("mean_eps", Obs.Json.Num (mean s.sum_eps s));
                   ("mean_certified_lower", Obs.Json.Num (mean s.sum_lower s));
                   ("mean_empirical_accuracy", Obs.Json.Num (mean s.sum_emp s));
                   ("mean_true_accuracy", Obs.Json.Num (mean s.sum_true s));
                 ])
             stats) );
    ]

let write_summary stats =
  match Sys.getenv_opt "GUARANTEE_SUMMARY" with
  | None | Some "" -> ()
  | Some path ->
      let oc = open_out path in
      output_string oc (Obs.Json.to_string_pretty (summary_json stats));
      close_out oc

let test_sweep () =
  let stats = List.mapi run_family families in
  (* Write the artifact before asserting so a red run still uploads its
     evidence. *)
  write_summary stats;
  List.iter
    (fun s ->
      Alcotest.(check int)
        (s.name ^ ": full seed count") n_seeds s.trials;
      Alcotest.(check int)
        (s.name ^ ": zero bound violations") 0 s.violations)
    stats;
  (* Guard against a vacuous sweep: a meaningful fraction of the certified
     lower bounds must actually be positive (a bound of 0 can never be
     violated).  The true informative rate is far above this threshold;
     binomial concentration over >= 600 trials makes the check stable
     under seed rotation. *)
  let informative = List.fold_left (fun a s -> a + s.informative) 0 stats in
  let total = List.fold_left (fun a s -> a + s.trials) 0 stats in
  if float_of_int informative < 0.2 *. float_of_int total then
    Alcotest.failf "sweep is vacuous: only %d/%d informative bounds"
      informative total

(* ---------- ground truth of the ground truth ---------- *)

(* The sweep trusts Exec.accuracy/true_top_k as its oracle; tie that
   oracle to the exact two-phase algorithm, whose answer is correct by
   construction regardless of plan or samples. *)
let test_exact_oracle_agreement () =
  for seed = 0 to 9 do
    let rng = Rng.create (7_000 + seed) in
    let n = 6 + Rng.int rng 10 in
    let k = 1 + Rng.int rng 3 in
    let topo = random_tree rng n in
    let cost = Sensor.Cost.of_mica2 topo mica in
    let readings = Array.init n (fun _ -> Rng.gaussian rng ~mu:20. ~sigma:5.) in
    let proof = Prospector.Proof_exec.min_bandwidth_plan topo in
    let o = Prospector.Exact.run topo cost mica proof ~k ~readings in
    let truth = Prospector.Exec.true_top_k ~k readings in
    Alcotest.(check bool)
      "exact answer equals Exec.true_top_k" true
      (o.Prospector.Exact.answer = truth);
    Alcotest.(check (float 1e-12))
      "oracle scores itself perfect" 1.
      (Prospector.Exec.accuracy ~k ~readings truth)
  done

(* ---------- metamorphic properties of the tail bounds ---------- *)

let check_decreasing name f xs =
  let rec go = function
    | a :: (b :: _ as rest) ->
        if not (f a >= f b -. 1e-12) then
          Alcotest.failf "%s: slack increased between %g and %g (%g < %g)" name
            a b (f a) (f b);
        go rest
    | _ -> ()
  in
  go xs

let test_slack_monotone_in_m () =
  let ms = [ 2.; 3.; 5.; 10.; 25.; 100.; 400.; 1600. ] in
  List.iter
    (fun delta ->
      check_decreasing "hoeffding in m"
        (fun m -> Prospector.Guarantee.hoeffding_slack ~m:(int_of_float m) ~delta)
        ms;
      List.iter
        (fun variance ->
          check_decreasing "bernstein in m"
            (fun m ->
              Prospector.Guarantee.bernstein_slack ~m:(int_of_float m) ~variance
                ~delta)
            ms)
        [ 0.; 0.01; 0.25 ];
      check_decreasing "union in m"
        (fun m ->
          Prospector.Guarantee.union_slack ~m:(int_of_float m) ~candidates:8
            ~k:2 ~delta)
        ms)
    [ 0.2; 0.01; 1e-6 ]

let test_slack_monotone_in_delta () =
  (* Demanding higher confidence (smaller delta) can only widen the slack. *)
  let deltas = [ 0.5; 0.1; 0.01; 1e-4; 1e-8 ] in
  let rec pairs = function
    | a :: (b :: _ as rest) ->
        (* b < a: stricter confidence must not shrink any family's slack. *)
        Alcotest.(check bool) "hoeffding widens as delta shrinks" true
          (Prospector.Guarantee.hoeffding_slack ~m:50 ~delta:b
          >= Prospector.Guarantee.hoeffding_slack ~m:50 ~delta:a -. 1e-12);
        Alcotest.(check bool) "bernstein widens as delta shrinks" true
          (Prospector.Guarantee.bernstein_slack ~m:50 ~variance:0.1 ~delta:b
          >= Prospector.Guarantee.bernstein_slack ~m:50 ~variance:0.1 ~delta:a
             -. 1e-12);
        Alcotest.(check bool) "union widens as delta shrinks" true
          (Prospector.Guarantee.union_slack ~m:50 ~candidates:6 ~k:2 ~delta:b
          >= Prospector.Guarantee.union_slack ~m:50 ~candidates:6 ~k:2 ~delta:a
             -. 1e-12);
        pairs rest
    | _ -> ()
  in
  pairs deltas

let test_union_monotone_in_k_and_candidates () =
  (* A larger answer set dilutes each node's contribution: slack shrinks. *)
  check_decreasing "union in k"
    (fun k ->
      Prospector.Guarantee.union_slack ~m:50 ~candidates:12
        ~k:(int_of_float k) ~delta:0.01)
    [ 1.; 2.; 4.; 8.; 12. ];
  (* More candidates split the failure budget thinner: slack grows. *)
  check_decreasing "union in candidates (reversed)"
    (fun c ->
      -.Prospector.Guarantee.union_slack ~m:50 ~candidates:(int_of_float c)
          ~k:2 ~delta:0.01)
    [ 1.; 2.; 4.; 8.; 16. ]

let test_slack_edge_cases () =
  Alcotest.(check bool) "bernstein needs two samples" true
    (Prospector.Guarantee.bernstein_slack ~m:1 ~variance:0.1 ~delta:0.1
    = infinity);
  Alcotest.check_raises "hoeffding m = 0"
    (Invalid_argument "Guarantee.hoeffding_slack: m must be positive")
    (fun () ->
      ignore (Prospector.Guarantee.hoeffding_slack ~m:0 ~delta:0.1));
  Alcotest.check_raises "delta = 0"
    (Invalid_argument "Guarantee.hoeffding_slack: delta must be in (0, 1)")
    (fun () ->
      ignore (Prospector.Guarantee.hoeffding_slack ~m:10 ~delta:0.));
  Alcotest.check_raises "delta = 1"
    (Invalid_argument "Guarantee.hoeffding_slack: delta must be in (0, 1)")
    (fun () ->
      ignore (Prospector.Guarantee.hoeffding_slack ~m:10 ~delta:1.));
  Alcotest.check_raises "negative variance"
    (Invalid_argument "Guarantee.bernstein_slack: negative variance")
    (fun () ->
      ignore
        (Prospector.Guarantee.bernstein_slack ~m:10 ~variance:(-1.) ~delta:0.1));
  Alcotest.check_raises "zero candidates"
    (Invalid_argument "Guarantee.union_slack: candidates must be positive")
    (fun () ->
      ignore
        (Prospector.Guarantee.union_slack ~m:10 ~candidates:0 ~k:1 ~delta:0.1));
  Alcotest.check_raises "zero k"
    (Invalid_argument "Guarantee.union_slack: k must be positive")
    (fun () ->
      ignore
        (Prospector.Guarantee.union_slack ~m:10 ~candidates:3 ~k:0 ~delta:0.1))

(* ---------- compute: determinism and window growth ---------- *)

let fixed_instance seed =
  let rng = Rng.create seed in
  let n = 12 in
  let topo = random_tree rng n in
  let cost = Sensor.Cost.of_mica2 topo mica in
  let field =
    Sampling.Field.random_gaussian rng ~n ~mean_lo:18. ~mean_hi:26. ~sigma_lo:1.
      ~sigma_hi:3.
  in
  let k = 2 in
  let samples = Sampling.Sample_set.draw rng field ~k ~count:120 in
  let plan =
    (Prospector.Lp_lf.plan topo cost samples ~budget:20. ~k).Prospector.Lp_lf
      .plan
  in
  (topo, cost, field, plan, k, samples)

let test_compute_deterministic () =
  let topo, cost, _, plan, k, samples = fixed_instance 11 in
  let g1 = Prospector.Guarantee.compute topo cost plan ~k samples in
  let g2 = Prospector.Guarantee.compute topo cost plan ~k samples in
  Alcotest.(check bool) "same inputs, same guarantee" true
    (Prospector.Guarantee.equal g1 g2)

let test_window_growth_never_loosens () =
  (* Nested windows: the bound certified on the full window never carries
     more statistical slack than the ceiling the half window allows (the
     pure slack functions are monotone in m; this checks the property
     survives the end-to-end compute path). *)
  let topo, cost, _, plan, k, samples = fixed_instance 12 in
  let m = Sampling.Sample_set.n_samples samples in
  let half = Sampling.Sample_set.slice samples ~offset:0 ~count:(m / 2) in
  let delta = 1e-3 in
  let g_full = Prospector.Guarantee.compute ~delta topo cost plan ~k samples in
  let g_half = Prospector.Guarantee.compute ~delta topo cost plan ~k half in
  Alcotest.(check bool) "full-window slack under half-window ceiling" true
    (g_full.Prospector.Guarantee.stat_eps
    <= Prospector.Guarantee.hoeffding_slack ~m:(m / 2) ~delta:(delta /. 3.)
       +. 1e-12);
  Alcotest.(check bool) "half-window slack respects its own ceiling" true
    (g_half.Prospector.Guarantee.stat_eps
    <= Prospector.Guarantee.hoeffding_slack ~m:(m / 2) ~delta:(delta /. 3.)
       +. 1e-12)

(* ---------- meets / holds_against / validate on a fabricated record ---------- *)

let fabricated =
  {
    Prospector.Guarantee.eps = 0.2;
    delta = 0.01;
    samples = 50;
    k = 2;
    empirical_accuracy = 0.9;
    certified_lower = 0.7;
    stat_eps = 0.2;
    lp_eps = 0.;
    family = Prospector.Guarantee.Hoeffding;
    candidates = 4;
    lp_certified = false;
  }

let test_meets_and_holds () =
  Alcotest.(check bool) "meets a looser target" true
    (Prospector.Guarantee.meets fabricated ~eps:0.35 ~delta:0.05);
  Alcotest.(check bool) "rejects a tighter eps" false
    (Prospector.Guarantee.meets fabricated ~eps:0.25 ~delta:0.05);
  Alcotest.(check bool) "rejects a tighter delta" false
    (Prospector.Guarantee.meets fabricated ~eps:0.35 ~delta:0.001);
  Alcotest.(check bool) "holds against truth above the floor" true
    (Prospector.Guarantee.holds_against fabricated ~observed_accuracy:0.71);
  Alcotest.(check bool) "violated by truth below the floor" false
    (Prospector.Guarantee.holds_against fabricated ~observed_accuracy:0.69)

let expect_invalid label g =
  match Prospector.Guarantee.validate g with
  | Ok () -> Alcotest.failf "%s: expected validation failure" label
  | Error _ -> ()

let test_validate_rejects_corruption () =
  (match Prospector.Guarantee.validate fabricated with
  | Ok () -> ()
  | Error reason -> Alcotest.failf "fabricated record invalid: %s" reason);
  expect_invalid "broken eps identity" { fabricated with eps = 0.3 };
  expect_invalid "delta out of range" { fabricated with delta = 0. };
  expect_invalid "broken lower identity"
    { fabricated with certified_lower = 0.9 };
  expect_invalid "LP slack without certification"
    { fabricated with lp_eps = 0.05; eps = 0.25; certified_lower = 0.65 };
  expect_invalid "slack above the Hoeffding member"
    { fabricated with stat_eps = 1.; eps = 1.; certified_lower = 0. };
  Alcotest.(check bool) "foreign JSON schema rejected" true
    (Prospector.Guarantee.of_json (Obs.Json.Obj [ ("schema", Obs.Json.Str "x") ])
    = None)

(* ---------- the escalation ladder ---------- *)

let plan_with_target ?max_escalations ?growth topo cost samples ~k ~budget ~eps
    ~delta =
  Prospector.Robust_plan.plan_with_guarantee ?max_escalations ?growth ~eps
    ~delta
    ~planner:(fun ~samples ~budget ->
      Prospector.Lp_lf.plan topo cost samples ~budget ~k)
    ~describe:(fun r ->
      ( r.Prospector.Lp_lf.plan,
        r.Prospector.Lp_lf.certify,
        Some r.Prospector.Lp_lf.lp_objective ))
    topo cost ~k samples ~budget

let test_budget_monotone_in_target () =
  (* Tightening eps never decreases the chosen budget: the ladder takes
     the first rung meeting the target, and a stricter target can only be
     met later (or fall back to the best rung, which is at least as deep
     as any attained one). *)
  let topo, cost, _, _, k, samples = fixed_instance 13 in
  let budgets =
    List.map
      (fun eps ->
        (plan_with_target topo cost samples ~k ~budget:4. ~eps ~delta:1e-3)
          .Prospector.Robust_plan.chosen
          .Prospector.Robust_plan.budget)
      [ 0.95; 0.8; 0.6; 0.45; 0.3; 0.2 ]
  in
  let rec non_decreasing = function
    | a :: (b :: _ as rest) ->
        Alcotest.(check bool) "budget never shrinks as eps tightens" true
          (b >= a -. 1e-9);
        non_decreasing rest
    | _ -> ()
  in
  non_decreasing budgets

let test_escalation_reaches_target () =
  let topo, cost, _, _, k, samples = fixed_instance 14 in
  let eps = 0.45 and delta = 1e-3 in
  let r = plan_with_target topo cost samples ~k ~budget:2. ~eps ~delta in
  Alcotest.(check bool) "target attained" true r.Prospector.Robust_plan.attained;
  Alcotest.(check bool) "needed at least one escalation" true
    (r.Prospector.Robust_plan.escalations >= 1);
  let a = r.Prospector.Robust_plan.chosen in
  Alcotest.(check bool) "chosen budget above the starting rung" true
    (a.Prospector.Robust_plan.budget > 2.);
  Alcotest.(check bool) "chosen bound certifies the target" true
    (Prospector.Guarantee.meets a.Prospector.Robust_plan.guarantee ~eps ~delta);
  (* The ladder certifies each rung at delta / rungs so the adaptive
     choice stays valid at delta overall. *)
  Alcotest.(check (float 1e-15)) "per-rung delta"
    (delta /. 7.)
    a.Prospector.Robust_plan.guarantee.Prospector.Guarantee.delta

let test_unattainable_returns_best_attempt () =
  let topo, cost, _, _, k, samples = fixed_instance 15 in
  (* eps = 1e-4 demands certified accuracy >= 0.9999; the statistical
     slack alone (~0.25 at this window size) makes that impossible. *)
  let r = plan_with_target topo cost samples ~k ~budget:4. ~eps:1e-4 ~delta:1e-3 in
  Alcotest.(check bool) "not attained" false r.Prospector.Robust_plan.attained;
  Alcotest.(check int) "full ladder explored" 6
    r.Prospector.Robust_plan.escalations;
  let g = r.Prospector.Robust_plan.chosen.Prospector.Robust_plan.guarantee in
  (match Prospector.Guarantee.validate g with
  | Ok () -> ()
  | Error reason -> Alcotest.failf "best-attempt bound invalid: %s" reason);
  Alcotest.(check bool) "best attempt does not claim the target" false
    (Prospector.Guarantee.meets g ~eps:1e-4 ~delta:1e-3)

let test_ladder_rejects_bad_arguments () =
  let topo, cost, _, _, k, samples = fixed_instance 16 in
  List.iter
    (fun (label, why, max_escalations, growth, eps, delta) ->
      Alcotest.check_raises label
        (Invalid_argument ("Robust_plan.plan_with_guarantee: " ^ why))
        (fun () ->
          ignore
            (plan_with_target ?max_escalations ?growth topo cost samples ~k
               ~budget:4. ~eps ~delta)))
    [
      ("eps = 0", "eps <= 0", None, None, 0., 0.1);
      ("eps = nan", "eps <= 0", None, None, Float.nan, 0.1);
      ("delta = 1", "delta must be in (0, 1)", None, None, 0.5, 1.);
      ("delta = nan", "delta must be in (0, 1)", None, None, 0.5, Float.nan);
      ("growth < 1", "growth must be >= 1", None, Some 0.5, 0.5, 0.1);
      ("growth = nan", "growth must be >= 1", None, Some Float.nan, 0.5, 0.1);
      ( "negative max_escalations",
        "negative max_escalations",
        Some (-1),
        None,
        0.5,
        0.1 );
    ]

(* ---------- integration: Lp_lf and Replan ---------- *)

let test_lp_lf_guarantee_deterministic () =
  let topo, cost, _, _, k, samples = fixed_instance 17 in
  let once () =
    Prospector.Lp_lf.plan ~guarantee:(0.9, 1e-3) topo cost samples ~budget:15.
      ~k
  in
  let a = once () and b = once () in
  match (a.Prospector.Lp_lf.guarantee, b.Prospector.Lp_lf.guarantee) with
  | Some ga, Some gb ->
      Alcotest.(check bool) "two identical solves, identical bounds" true
        (Prospector.Guarantee.equal ga gb)
  | _ -> Alcotest.fail "?guarantee result without a bound"

let test_replan_refuses_unmet_target () =
  let topo, cost, _, _, k, samples = fixed_instance 18 in
  let empty = Prospector.Plan.make topo (Array.make topo.Sensor.Topology.n 0) in
  let state = Prospector.Replan.create ~initial:empty () in
  (* Without a target the upgrade from the empty plan is disseminated;
     under an impossible target the same candidate must be refused. *)
  (match
     Prospector.Replan.consider state ~guarantee:(1e-4, 1e-3) topo cost mica
       samples ~k ~budget:15.
   with
  | Prospector.Replan.Kept -> ()
  | Prospector.Replan.Disseminated _ ->
      Alcotest.fail "disseminated a plan whose target was not certified");
  Alcotest.(check int) "no replans recorded" 0 (Prospector.Replan.replans state)

let () =
  Alcotest.run "guarantee"
    [
      ( "bound-violation sweep",
        [
          Alcotest.test_case "cross-seed adversarial sweep" `Quick test_sweep;
          Alcotest.test_case "exact oracle agreement" `Quick
            test_exact_oracle_agreement;
        ] );
      ( "metamorphic",
        [
          Alcotest.test_case "slack monotone in m" `Quick
            test_slack_monotone_in_m;
          Alcotest.test_case "slack monotone in delta" `Quick
            test_slack_monotone_in_delta;
          Alcotest.test_case "union slack monotone in k and candidates" `Quick
            test_union_monotone_in_k_and_candidates;
          Alcotest.test_case "edge cases" `Quick test_slack_edge_cases;
          Alcotest.test_case "compute is deterministic" `Quick
            test_compute_deterministic;
          Alcotest.test_case "window growth never loosens" `Quick
            test_window_growth_never_loosens;
        ] );
      ( "record",
        [
          Alcotest.test_case "meets and holds_against" `Quick
            test_meets_and_holds;
          Alcotest.test_case "validate rejects corruption" `Quick
            test_validate_rejects_corruption;
        ] );
      ( "escalation ladder",
        [
          Alcotest.test_case "budget monotone in target" `Quick
            test_budget_monotone_in_target;
          Alcotest.test_case "escalation reaches target" `Quick
            test_escalation_reaches_target;
          Alcotest.test_case "unattainable returns best attempt" `Quick
            test_unattainable_returns_best_attempt;
          Alcotest.test_case "argument validation" `Quick
            test_ladder_rejects_bad_arguments;
        ] );
      ( "integration",
        [
          Alcotest.test_case "lp_lf guarantee deterministic" `Quick
            test_lp_lf_guarantee_deterministic;
          Alcotest.test_case "replan refuses unmet target" `Quick
            test_replan_refuses_unmet_target;
        ] );
    ]
