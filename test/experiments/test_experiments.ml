(* Tests for the experiment scaffolding: series formatting, workload
   setups, and the planner-evaluation glue. *)

let test_series_width_checked () =
  Alcotest.check_raises "ragged rows rejected"
    (Invalid_argument "Series.make: row width mismatch") (fun () ->
      ignore
        (Experiments.Series.make ~title:"t" ~columns:[ "a"; "b" ] [ [ 1. ] ]))

let test_series_print_shape () =
  let s =
    Experiments.Series.make ~title:"sample" ~columns:[ "x" ]
      ~notes:[ "a note" ] [ [ 42. ] ]
  in
  let buf = Buffer.create 64 in
  let ppf = Format.formatter_of_buffer buf in
  Experiments.Series.print ppf s;
  Format.pp_print_flush ppf ();
  let text = Buffer.contents buf in
  let has needle =
    let n = String.length needle and ln = String.length text in
    let rec go i = i + n <= ln && (String.sub text i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "title shown" true (has "== sample ==");
  Alcotest.(check bool) "value shown" true (has "42.00");
  Alcotest.(check bool) "note shown" true (has "a note")

let test_uniform_setup_shape () =
  let s =
    Experiments.Setup.uniform_gaussian ~seed:1 ~n:30 ~k:5 ~n_samples:8
      ~n_test:4 ()
  in
  Alcotest.(check int) "nodes" 30 s.Experiments.Setup.topo.Sensor.Topology.n;
  Alcotest.(check int) "samples" 8
    (Sampling.Sample_set.n_samples s.Experiments.Setup.samples);
  Alcotest.(check int) "test epochs" 4
    (Array.length s.Experiments.Setup.test_epochs);
  Alcotest.(check int) "k" 5 s.Experiments.Setup.k

let test_contention_setup_zones () =
  let s =
    Experiments.Setup.contention ~seed:2 ~n_zones:3 ~per_zone:6 ~background:10
      ~k:4 ~n_samples:5 ~n_test:3 ()
  in
  Alcotest.(check int) "total nodes" (1 + (3 * 6) + 10)
    (Sensor.Placement.n s.Experiments.Setup.layout)

let test_intel_setup_connected () =
  let s = Experiments.Setup.intel_lab ~seed:3 ~k:5 ~n_samples:10 ~n_test:5 () in
  Alcotest.(check int) "54 motes" 54 s.Experiments.Setup.topo.Sensor.Topology.n;
  Alcotest.(check bool) "deep tree from minimal radio range" true
    (Sensor.Topology.height s.Experiments.Setup.topo > 3)

let test_partial_accuracy () =
  let s =
    Experiments.Setup.uniform_gaussian ~seed:4 ~n:20 ~k:10 ~n_samples:5
      ~n_test:6 ()
  in
  let full = Experiments.Planner_eval.partial_accuracy s ~k_fetched:10 in
  let half = Experiments.Planner_eval.partial_accuracy s ~k_fetched:5 in
  Alcotest.(check (float 1e-9)) "fetching k is exact" 1. full;
  Alcotest.(check (float 1e-9)) "fetching k/2 recalls half" 0.5 half

let test_naive_anchor_positive () =
  let s =
    Experiments.Setup.uniform_gaussian ~seed:5 ~n:25 ~k:5 ~n_samples:5
      ~n_test:3 ()
  in
  Alcotest.(check bool) "anchor cost positive" true
    (Experiments.Planner_eval.naive_k_cost s > 0.)

let test_crippled_lp_still_measures () =
  (* With the LP stages starved ([lp_iterations:0]) the planners fall back
     to greedy (see {!Prospector.Robust_plan}); the evaluation glue must
     still return a sane measured point rather than crash. *)
  let s =
    Experiments.Setup.uniform_gaussian ~seed:8 ~n:20 ~k:4 ~n_samples:6
      ~n_test:3 ()
  in
  let check_point name (p : Prospector.Evaluate.point) =
    Alcotest.(check bool) (name ^ ": accuracy in range") true
      (p.Prospector.Evaluate.accuracy >= 0.
      && p.Prospector.Evaluate.accuracy <= 1.);
    Alcotest.(check bool) (name ^ ": cost finite") true
      (Float.is_finite (Prospector.Evaluate.total_per_run_mj p))
  in
  check_point "lp_lf"
    (Experiments.Planner_eval.lp_lf ~lp_iterations:0 s ~budget:30.);
  check_point "lp_no_lf"
    (Experiments.Planner_eval.lp_no_lf ~lp_iterations:0 s ~budget:30.)

let test_replan_samples_swaps () =
  let s =
    Experiments.Setup.uniform_gaussian ~seed:6 ~n:15 ~k:3 ~n_samples:9
      ~n_test:2 ()
  in
  let restricted =
    Experiments.Setup.replan_samples s
      (Sampling.Sample_set.restrict s.Experiments.Setup.samples ~count:4)
  in
  Alcotest.(check int) "swapped" 4
    (Sampling.Sample_set.n_samples restricted.Experiments.Setup.samples);
  Alcotest.(check int) "topology untouched" 15
    restricted.Experiments.Setup.topo.Sensor.Topology.n

let () =
  Alcotest.run "experiments"
    [
      ( "series",
        [
          Alcotest.test_case "ragged rows rejected" `Quick test_series_width_checked;
          Alcotest.test_case "print shape" `Quick test_series_print_shape;
        ] );
      ( "setup",
        [
          Alcotest.test_case "uniform gaussian" `Quick test_uniform_setup_shape;
          Alcotest.test_case "contention zones" `Quick test_contention_setup_zones;
          Alcotest.test_case "intel lab" `Quick test_intel_setup_connected;
        ] );
      ( "planner_eval",
        [
          Alcotest.test_case "partial accuracy" `Quick test_partial_accuracy;
          Alcotest.test_case "naive anchor" `Quick test_naive_anchor_positive;
          Alcotest.test_case "replan samples" `Quick test_replan_samples_swaps;
          Alcotest.test_case "crippled lp still measures" `Quick
            test_crippled_lp_still_measures;
        ] );
    ]
