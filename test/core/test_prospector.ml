(* Tests for the PROSPECTOR core: plans, executors (analytic and simulated),
   the naive and oracle baselines, proof-carrying execution (Lemma 1), the
   two-phase exact algorithm, and the LP planners. *)

let check_float = Alcotest.(check (float 1e-6))

let mica = Sensor.Mica2.default

(* ---------- fixtures ---------- *)

let chain n = Sensor.Topology.of_parents ~root:0 (Array.init n (fun i -> i - 1))

let star n =
  let parent = Array.make n 0 in
  parent.(0) <- -1;
  Sensor.Topology.of_parents ~root:0 parent

(* A random recursive tree: node i >= 1 attaches to a uniform earlier node. *)
let random_tree rng n =
  let parent = Array.init n (fun i -> if i = 0 then -1 else Rng.int rng i) in
  Sensor.Topology.of_parents ~root:0 parent

let random_readings rng n =
  Array.init n (fun _ -> Rng.gaussian rng ~mu:20. ~sigma:5.)

let ids answer = List.map fst answer

(* ---------- Plan ---------- *)

let test_plan_normalize_prunes () =
  let topo = chain 4 in
  (* Edge 1 is closed, so the bandwidth at 2 and 3 is unreachable. *)
  let plan = Prospector.Plan.make topo [| 0; 0; 5; 2 |] in
  Alcotest.(check int) "dead branch cleared (2)" 0
    (Prospector.Plan.bandwidth plan 2);
  Alcotest.(check int) "dead branch cleared (3)" 0
    (Prospector.Plan.bandwidth plan 3)

let test_plan_normalize_caps () =
  let topo = chain 3 in
  (* Node 1 receives at most 1 value from node 2 plus its own. *)
  let plan = Prospector.Plan.make topo [| 0; 9; 1 |] in
  Alcotest.(check int) "capped at inflow+1" 2 (Prospector.Plan.bandwidth plan 1)

let test_plan_of_chosen () =
  let topo = chain 4 in
  let chosen = [| false; false; false; true |] in
  let plan = Prospector.Plan.of_chosen topo chosen in
  Alcotest.(check int) "leaf edge" 1 (Prospector.Plan.bandwidth plan 3);
  Alcotest.(check int) "relay edge" 1 (Prospector.Plan.bandwidth plan 1)

let test_plan_of_fractional () =
  let topo = star 4 in
  let plan = Prospector.Plan.of_fractional topo [| 0.; 0.4; 0.5; 1.6 |] in
  Alcotest.(check int) "0.4 rounds down" 0 (Prospector.Plan.bandwidth plan 1);
  Alcotest.(check int) "0.5 rounds up" 1 (Prospector.Plan.bandwidth plan 2);
  Alcotest.(check int) "1.6 rounds to 2... capped at own+inflow=1" 1
    (Prospector.Plan.bandwidth plan 3)

let test_plan_costs_chain () =
  let topo = chain 3 in
  let cost = Sensor.Cost.of_mica2 topo mica in
  let plan = Prospector.Plan.make topo [| 0; 2; 1 |] in
  check_float "static cost"
    (Sensor.Cost.message_mj cost ~node:1 ~values:2
    +. Sensor.Cost.message_mj cost ~node:2 ~values:1)
    (Prospector.Plan.expected_collection_mj topo cost plan);
  check_float "trigger: two hops with one child each"
    (2. *. Sensor.Mica2.trigger_mj mica ~receivers:1)
    (Prospector.Plan.trigger_mj topo mica plan);
  check_float "install: one subplan per participating edge"
    (2. *. Sensor.Mica2.plan_install_mj mica)
    (Prospector.Plan.install_mj topo mica plan)

let test_plan_participants () =
  let topo = star 4 in
  let plan = Prospector.Plan.make topo [| 0; 1; 0; 1 |] in
  Alcotest.(check (list int)) "participants" [ 0; 1; 3 ]
    (List.sort compare (Prospector.Plan.participants topo plan))

(* ---------- Exec ---------- *)

let test_exec_chain_filtering () =
  let topo = chain 4 in
  let cost = Sensor.Cost.of_mica2 topo mica in
  (* Full pipe at the leaf, but node 1 filters down to one value. *)
  let plan = Prospector.Plan.make topo [| 0; 1; 2; 1 |] in
  let readings = [| 5.; 1.; 9.; 7. |] in
  let o = Prospector.Exec.collect topo cost plan ~k:3 ~readings in
  (* Node 3 sends 7; node 2 sends [9;7]; node 1 filters to [9];
     root merges with its own 5. *)
  Alcotest.(check (list int)) "answer ids" [ 2; 0 ]
    (ids o.Prospector.Exec.returned);
  Alcotest.(check int) "messages" 3 o.Prospector.Exec.messages;
  Alcotest.(check int) "values sent" 4 o.Prospector.Exec.values_sent;
  check_float "energy"
    (Sensor.Cost.message_mj cost ~node:3 ~values:1
    +. Sensor.Cost.message_mj cost ~node:2 ~values:2
    +. Sensor.Cost.message_mj cost ~node:1 ~values:1)
    o.Prospector.Exec.collection_mj

let test_exec_empty_plan () =
  let topo = star 5 in
  let cost = Sensor.Cost.of_mica2 topo mica in
  let plan = Prospector.Plan.make topo (Array.make 5 0) in
  let readings = [| 1.; 9.; 9.; 9.; 9. |] in
  let o = Prospector.Exec.collect topo cost plan ~k:2 ~readings in
  Alcotest.(check (list int)) "root answers alone" [ 0 ]
    (ids o.Prospector.Exec.returned);
  check_float "free" 0. o.Prospector.Exec.collection_mj

let test_value_order_ties () =
  Alcotest.(check bool) "ties break to smaller id" true
    (Prospector.Exec.value_order (1, 5.) (2, 5.) < 0);
  Alcotest.(check bool) "larger value first" true
    (Prospector.Exec.value_order (9, 6.) (2, 5.) < 0)

let test_true_top_k_and_accuracy () =
  let readings = [| 1.; 3.; 2. |] in
  Alcotest.(check (list int)) "top 2" [ 1; 2 ]
    (ids (Prospector.Exec.true_top_k ~k:2 readings));
  Alcotest.(check (float 1e-9)) "half right" 0.5
    (Prospector.Exec.accuracy ~k:2 ~readings [ (1, 3.); (0, 1.) ])

let full_bandwidth_plan topo k =
  Prospector.Plan.make topo
    (Array.map (fun s -> Int.min s k) topo.Sensor.Topology.subtree_size)

let exec_full_plan_is_exact =
  QCheck.Test.make ~name:"full-bandwidth plans return the exact top k"
    ~count:200
    (QCheck.make ~print:string_of_int QCheck.Gen.(0 -- 100_000))
    (fun seed ->
      let rng = Rng.create seed in
      let n = 2 + Rng.int rng 40 in
      let k = 1 + Rng.int rng 10 in
      let topo = random_tree rng n in
      let cost = Sensor.Cost.of_mica2 topo mica in
      let readings = random_readings rng n in
      let o =
        Prospector.Exec.collect topo cost (full_bandwidth_plan topo k) ~k
          ~readings
      in
      ids o.Prospector.Exec.returned
      = ids (Prospector.Exec.true_top_k ~k readings))

(* ---------- Naive ---------- *)

let naive_k_exact =
  QCheck.Test.make ~name:"NAIVE-k returns the exact top k" ~count:200
    (QCheck.make ~print:string_of_int QCheck.Gen.(0 -- 100_000))
    (fun seed ->
      let rng = Rng.create seed in
      let n = 2 + Rng.int rng 40 in
      let k = 1 + Rng.int rng 10 in
      let topo = random_tree rng n in
      let cost = Sensor.Cost.of_mica2 topo mica in
      let readings = random_readings rng n in
      let o = Prospector.Naive.naive_k topo cost ~k ~readings in
      ids o.Prospector.Naive.returned
      = ids (Prospector.Exec.true_top_k ~k readings))

let naive_one_exact =
  QCheck.Test.make ~name:"NAIVE-1 returns the exact top k" ~count:200
    (QCheck.make ~print:string_of_int QCheck.Gen.(0 -- 100_000))
    (fun seed ->
      let rng = Rng.create (seed + 1) in
      let n = 2 + Rng.int rng 40 in
      let k = 1 + Rng.int rng 10 in
      let topo = random_tree rng n in
      let cost = Sensor.Cost.of_mica2 topo mica in
      let readings = random_readings rng n in
      let o = Prospector.Naive.naive_one topo cost ~k ~readings in
      ids o.Prospector.Naive.returned
      = ids (Prospector.Exec.true_top_k ~k readings))

let naive_tradeoff =
  QCheck.Test.make
    ~name:"NAIVE-1 sends fewer values but more messages than NAIVE-k"
    ~count:100
    (QCheck.make ~print:string_of_int QCheck.Gen.(0 -- 100_000))
    (fun seed ->
      let rng = Rng.create (seed + 2) in
      let n = 10 + Rng.int rng 40 in
      let k = 2 + Rng.int rng 8 in
      let topo = random_tree rng n in
      let cost = Sensor.Cost.of_mica2 topo mica in
      let readings = random_readings rng n in
      let ok = Prospector.Naive.naive_k topo cost ~k ~readings in
      let o1 = Prospector.Naive.naive_one topo cost ~k ~readings in
      o1.Prospector.Naive.values_sent <= ok.Prospector.Naive.values_sent
      && o1.Prospector.Naive.messages >= ok.Prospector.Naive.messages)

let test_naive_k_message_count () =
  let topo = chain 5 in
  let cost = Sensor.Cost.of_mica2 topo mica in
  let o = Prospector.Naive.naive_k topo cost ~k:3 ~readings:[| 1.; 2.; 3.; 4.; 5. |] in
  (* Every non-root node sends exactly one message. *)
  Alcotest.(check int) "n-1 messages" 4 o.Prospector.Naive.messages;
  (* Chain: node 4 sends 1 value, 3 sends 2, 2 and 1 send 3 each. *)
  Alcotest.(check int) "values" (1 + 2 + 3 + 3) o.Prospector.Naive.values_sent

(* ---------- Oracle ---------- *)

let oracle_perfect_and_cheap =
  QCheck.Test.make
    ~name:"ORACLE is exact and no dearer than NAIVE-k" ~count:200
    (QCheck.make ~print:string_of_int QCheck.Gen.(0 -- 100_000))
    (fun seed ->
      let rng = Rng.create (seed + 3) in
      let n = 2 + Rng.int rng 40 in
      let k = 1 + Rng.int rng 10 in
      let topo = random_tree rng n in
      let cost = Sensor.Cost.of_mica2 topo mica in
      let readings = random_readings rng n in
      let o = Prospector.Oracle.oracle topo cost ~k ~readings in
      let nk = Prospector.Naive.naive_k topo cost ~k ~readings in
      ids o.Prospector.Exec.returned
      = ids (Prospector.Exec.true_top_k ~k readings)
      && o.Prospector.Exec.collection_mj
         <= nk.Prospector.Naive.collection_mj +. 1e-9)

let oracle_proof_proves_k =
  QCheck.Test.make ~name:"ORACLE-PROOF proves the whole answer" ~count:200
    (QCheck.make ~print:string_of_int QCheck.Gen.(0 -- 100_000))
    (fun seed ->
      let rng = Rng.create (seed + 4) in
      let n = 2 + Rng.int rng 30 in
      let k = 1 + Rng.int rng 8 in
      let topo = random_tree rng n in
      let cost = Sensor.Cost.of_mica2 topo mica in
      let readings = random_readings rng n in
      let plan = Prospector.Oracle.oracle_proof_plan topo ~k ~readings in
      let o = Prospector.Proof_exec.run topo cost plan ~k ~readings in
      o.Prospector.Proof_exec.proven_count = Int.min k n
      && ids o.Prospector.Proof_exec.result
         = ids (Prospector.Exec.true_top_k ~k readings))

(* ---------- Proof_exec: Lemma 1 ---------- *)

let random_proof_plan rng topo k =
  Prospector.Plan.make topo
    (Array.mapi
       (fun i size ->
         if i = topo.Sensor.Topology.root then 0
         else 1 + Rng.int rng (Int.min size (k + 2)))
       topo.Sensor.Topology.subtree_size)

let lemma1_proven_are_subtree_top =
  QCheck.Test.make
    ~name:"Lemma 1: proven values are exactly the subtree's top values"
    ~count:300
    (QCheck.make ~print:string_of_int QCheck.Gen.(0 -- 100_000))
    (fun seed ->
      let rng = Rng.create (seed + 5) in
      let n = 2 + Rng.int rng 25 in
      let k = 1 + Rng.int rng 6 in
      let topo = random_tree rng n in
      let cost = Sensor.Cost.of_mica2 topo mica in
      let readings = random_readings rng n in
      let plan = random_proof_plan rng topo k in
      let o = Prospector.Proof_exec.run topo cost plan ~k ~readings in
      let ok = ref true in
      Array.iteri
        (fun u st ->
          let proven = st.Prospector.Proof_exec.proven in
          let m = List.length proven in
          if m > 0 then begin
            let subtree = Sensor.Topology.descendants topo u in
            let subtree_values =
              List.map (fun d -> (d, readings.(d))) subtree
              |> List.sort Prospector.Exec.value_order
            in
            let rec take n = function
              | [] -> []
              | _ when n = 0 -> []
              | x :: rest -> x :: take (n - 1) rest
            in
            if proven <> take m subtree_values then ok := false
          end)
        o.Prospector.Proof_exec.states;
      !ok)

let proof_rejects_zero_bandwidth () =
  let topo = chain 3 in
  let cost = Sensor.Cost.of_mica2 topo mica in
  let plan = Prospector.Plan.make topo [| 0; 1; 0 |] in
  Alcotest.check_raises "zero bandwidth rejected"
    (Invalid_argument "Proof_exec.run: proof plans must use every edge")
    (fun () ->
      ignore
        (Prospector.Proof_exec.run topo cost plan ~k:1
           ~readings:[| 1.; 2.; 3. |]))

let test_proof_figure2_scenario () =
  (* The paper's Figure 2: a node with reading 7 receives (9,8) proven from
     one child, a partial list from another, and (6,4) style values; the
     fifth value cannot be proven because the middle subtree may hide a
     value between 6 and 7. *)
  (* Build: root 0 with child 1 (reading 7); node 1 has children 2,3,4.
     Subtree of 2 = {2,5}: readings 9,8 -> sends both (sent_all).
     Subtree of 3 = {3,6,7}: readings 4,2,0 -> bandwidth 2, sends 4,2 (not all).
     Subtree of 4 = {4,8}: readings 8,6 -> sends both (sent_all). *)
  let parent = [| -1; 0; 1; 1; 1; 2; 3; 3; 4 |] in
  let topo = Sensor.Topology.of_parents ~root:0 parent in
  let readings = [| 0.; 7.; 9.; 4.; 8.; 8.5; 2.; 0.5; 6. |] in
  let bw = [| 0; 5; 2; 2; 2; 1; 1; 1; 1 |] in
  let cost = Sensor.Cost.of_mica2 topo mica in
  let plan = Prospector.Plan.make topo bw in
  let o = Prospector.Proof_exec.run topo cost plan ~k:5 ~readings in
  let st1 = o.Prospector.Proof_exec.states.(1) in
  (* Node 1 passes up its top 5: 9, 8.5, 8, 7, 6. *)
  Alcotest.(check (list int)) "sent ids" [ 2; 5; 4; 1; 8 ]
    (ids st1.Prospector.Proof_exec.sent);
  (* 9, 8.5, 8, 7 are provable; 6... child 3 proved 4 < 6, child 2 sent
     all, child 4 sent all -> actually provable.  The unprovable case needs
     child 3 to have proven nothing below 6: tighten by checking 7:
     all children have witnesses below 7 (4 from child 3). *)
  Alcotest.(check bool) "at least the top four proven" true
    (List.length st1.Prospector.Proof_exec.proven >= 4)

(* ---------- Exact ---------- *)

let exact_always_correct =
  QCheck.Test.make ~name:"PROSPECTOR-EXACT returns the exact top k"
    ~count:300
    (QCheck.make ~print:string_of_int QCheck.Gen.(0 -- 100_000))
    (fun seed ->
      let rng = Rng.create (seed + 6) in
      let n = 2 + Rng.int rng 30 in
      let k = 1 + Rng.int rng 8 in
      let topo = random_tree rng n in
      let cost = Sensor.Cost.of_mica2 topo mica in
      let readings = random_readings rng n in
      let plan = random_proof_plan rng topo k in
      let o = Prospector.Exact.run topo cost mica plan ~k ~readings in
      ids o.Prospector.Exact.answer
      = ids (Prospector.Exec.true_top_k ~k readings))

let exact_no_mopup_when_proven =
  QCheck.Test.make
    ~name:"mop-up costs nothing when phase 1 proves everything" ~count:100
    (QCheck.make ~print:string_of_int QCheck.Gen.(0 -- 100_000))
    (fun seed ->
      let rng = Rng.create (seed + 7) in
      let n = 2 + Rng.int rng 30 in
      let k = 1 + Rng.int rng 8 in
      let topo = random_tree rng n in
      let cost = Sensor.Cost.of_mica2 topo mica in
      let readings = random_readings rng n in
      let plan = Prospector.Oracle.oracle_proof_plan topo ~k ~readings in
      let o = Prospector.Exact.run topo cost mica plan ~k ~readings in
      o.Prospector.Exact.phase2_mj = 0.
      && o.Prospector.Exact.proven_after_phase1 >= Int.min k n)

let exact_minimal_plan_correct =
  QCheck.Test.make
    ~name:"exact with the minimal (bandwidth-1) proof plan is still exact"
    ~count:200
    (QCheck.make ~print:string_of_int QCheck.Gen.(0 -- 100_000))
    (fun seed ->
      let rng = Rng.create (seed + 8) in
      let n = 2 + Rng.int rng 30 in
      let k = 1 + Rng.int rng 8 in
      let topo = random_tree rng n in
      let cost = Sensor.Cost.of_mica2 topo mica in
      let readings = random_readings rng n in
      let plan = Prospector.Proof_exec.min_bandwidth_plan topo in
      let o = Prospector.Exact.run topo cost mica plan ~k ~readings in
      ids o.Prospector.Exact.answer
      = ids (Prospector.Exec.true_top_k ~k readings))

(* ---------- Simnet equivalence ---------- *)

let simnet_matches_analytic =
  QCheck.Test.make
    ~name:"simulated execution matches the analytic executor" ~count:150
    (QCheck.make ~print:string_of_int QCheck.Gen.(0 -- 100_000))
    (fun seed ->
      let rng = Rng.create (seed + 9) in
      let n = 2 + Rng.int rng 30 in
      let k = 1 + Rng.int rng 8 in
      let topo = random_tree rng n in
      let cost = Sensor.Cost.of_mica2 topo mica in
      let readings = random_readings rng n in
      let bw =
        Array.mapi
          (fun i size ->
            if i = topo.Sensor.Topology.root then 0
            else Rng.int rng (Int.min (size + 1) (k + 2)))
          topo.Sensor.Topology.subtree_size
      in
      let plan = Prospector.Plan.make topo bw in
      let analytic = Prospector.Exec.collect topo cost plan ~k ~readings in
      let simulated = Prospector.Simnet_exec.collect topo mica plan ~k ~readings in
      let expected_total =
        analytic.Prospector.Exec.collection_mj
        +. Prospector.Plan.trigger_mj topo mica plan
      in
      ids analytic.Prospector.Exec.returned
      = ids simulated.Prospector.Simnet_exec.returned
      && Float.abs (simulated.Prospector.Simnet_exec.total_mj -. expected_total)
         < 1e-6)

(* ---------- Greedy ---------- *)

let test_greedy_zero_budget () =
  let topo = star 5 in
  let cost = Sensor.Cost.of_mica2 topo mica in
  let rng = Rng.create 11 in
  let f =
    Sampling.Field.random_gaussian rng ~n:5 ~mean_lo:0. ~mean_hi:10.
      ~sigma_lo:0.5 ~sigma_hi:2.
  in
  let samples = Sampling.Sample_set.draw rng f ~k:2 ~count:10 in
  let plan = Prospector.Greedy.plan topo cost samples ~budget:0. in
  Alcotest.(check int) "nothing chosen" 0 (Prospector.Plan.total_bandwidth plan)

let test_greedy_unbounded_budget () =
  let topo = star 5 in
  let cost = Sensor.Cost.of_mica2 topo mica in
  let rng = Rng.create 12 in
  let f =
    Sampling.Field.random_gaussian rng ~n:5 ~mean_lo:0. ~mean_hi:10.
      ~sigma_lo:0.5 ~sigma_hi:2.
  in
  let samples = Sampling.Sample_set.draw rng f ~k:3 ~count:20 in
  let plan = Prospector.Greedy.plan topo cost samples ~budget:1e9 in
  (* Every node with a positive column sum is shipped to the root. *)
  let expected =
    Array.to_list samples.Sampling.Sample_set.colsum
    |> List.mapi (fun i c -> (i, c))
    |> List.filter (fun (i, c) -> i <> 0 && c > 0)
    |> List.length
  in
  Alcotest.(check int) "all useful nodes chosen" expected
    (Prospector.Plan.total_bandwidth plan)

let greedy_respects_budget =
  QCheck.Test.make ~name:"GREEDY plans cost at most the budget" ~count:150
    (QCheck.make ~print:string_of_int QCheck.Gen.(0 -- 100_000))
    (fun seed ->
      let rng = Rng.create (seed + 10) in
      let n = 3 + Rng.int rng 30 in
      let k = 1 + Rng.int rng 6 in
      let topo = random_tree rng n in
      let cost = Sensor.Cost.of_mica2 topo mica in
      let f =
        Sampling.Field.random_gaussian rng ~n ~mean_lo:0. ~mean_hi:30.
          ~sigma_lo:0.5 ~sigma_hi:4.
      in
      let samples = Sampling.Sample_set.draw rng f ~k ~count:10 in
      let budget = Rng.float rng 30. in
      let plan = Prospector.Greedy.plan topo cost samples ~budget in
      Prospector.Plan.expected_collection_mj topo cost plan <= budget +. 1e-6)

(* ---------- LP planners ---------- *)

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

let test_lp_no_lf_star () =
  (* Star with one dominant node: with budget for exactly one value, the LP
     must pick it. *)
  let topo = star 4 in
  let cost = Sensor.Cost.of_mica2 topo mica in
  let samples =
    Sampling.Sample_set.of_values ~k:1
      [| [| 0.; 1.; 9.; 2. |]; [| 0.; 1.; 8.; 3. |]; [| 0.; 2.; 9.; 1. |] |]
  in
  let budget = Sensor.Cost.message_mj cost ~node:2 ~values:1 in
  let r = Prospector.Lp_no_lf.plan topo cost samples ~budget in
  Alcotest.(check bool) "node 2 chosen" true r.Prospector.Lp_no_lf.chosen.(2);
  Alcotest.(check bool) "node 1 not chosen" false r.Prospector.Lp_no_lf.chosen.(1);
  check_float "covers all three samples" 3. r.Prospector.Lp_no_lf.lp_objective

let lp_lf_dominates_lp_no_lf =
  QCheck.Test.make
    ~name:"LP+LF's relaxation objective >= LP-LF's" ~count:60
    (QCheck.make ~print:string_of_int QCheck.Gen.(0 -- 100_000))
    (fun seed ->
      let topo, cost, samples, k, rng = small_instance (seed + 11) in
      let budget = 2. +. Rng.float rng 30. in
      let a = Prospector.Lp_no_lf.plan topo cost samples ~budget in
      let b = Prospector.Lp_lf.plan topo cost samples ~budget ~k in
      b.Prospector.Lp_lf.lp_objective
      >= a.Prospector.Lp_no_lf.lp_objective -. 1e-6)

let lp_objectives_bounded =
  QCheck.Test.make
    ~name:"LP objectives are bounded by total ones" ~count:60
    (QCheck.make ~print:string_of_int QCheck.Gen.(0 -- 100_000))
    (fun seed ->
      let topo, cost, samples, k, rng = small_instance (seed + 12) in
      let budget = Rng.float rng 40. in
      let total_ones =
        float_of_int (Array.fold_left ( + ) 0 samples.Sampling.Sample_set.colsum)
      in
      let a = Prospector.Lp_no_lf.plan topo cost samples ~budget in
      let b = Prospector.Lp_lf.plan topo cost samples ~budget ~k in
      a.Prospector.Lp_no_lf.lp_objective <= total_ones +. 1e-6
      && b.Prospector.Lp_lf.lp_objective <= total_ones +. 1e-6
      && a.Prospector.Lp_no_lf.lp_objective >= -1e-9
      && b.Prospector.Lp_lf.lp_objective >= -1e-9)

let lp_objective_monotone_in_budget =
  QCheck.Test.make ~name:"LP objective grows with budget" ~count:40
    (QCheck.make ~print:string_of_int QCheck.Gen.(0 -- 100_000))
    (fun seed ->
      let topo, cost, samples, k, rng = small_instance (seed + 13) in
      let b1 = Rng.float rng 15. in
      let b2 = b1 +. 5. in
      let r1 = Prospector.Lp_lf.plan topo cost samples ~budget:b1 ~k in
      let r2 = Prospector.Lp_lf.plan topo cost samples ~budget:b2 ~k in
      r2.Prospector.Lp_lf.lp_objective
      >= r1.Prospector.Lp_lf.lp_objective -. 1e-6)

let test_lp_lf_generous_budget_covers_everything () =
  let topo, cost, samples, k, _ = small_instance 424242 in
  let r = Prospector.Lp_lf.plan topo cost samples ~budget:1e6 ~k in
  let total_ones =
    float_of_int (Array.fold_left ( + ) 0 samples.Sampling.Sample_set.colsum)
  in
  (* Root-owned ones are free; everything else is affordable. *)
  Alcotest.(check bool) "covers nearly all ones" true
    (r.Prospector.Lp_lf.lp_objective
    >= total_ones -. float_of_int (samples.Sampling.Sample_set.colsum.(0)) -. 1e-6)

let test_lp_proof_budget_too_small () =
  let topo = chain 4 in
  let cost = Sensor.Cost.of_mica2 topo mica in
  let samples =
    Sampling.Sample_set.of_values ~k:1 [| [| 1.; 2.; 3.; 4. |] |]
  in
  (try
     ignore (Prospector.Lp_proof.plan topo cost samples ~budget:0.1 ~k:1);
     Alcotest.fail "expected Budget_too_small"
   with Prospector.Lp_proof.Budget_too_small min_cost ->
     Alcotest.(check bool) "minimum reported" true (min_cost > 0.))

(* Pinned simplex iteration counts on the seed-20060403 planning
   instances (uniform 200 m x 200 m layout, radio range 1.25x the minimum
   connecting range, Gaussian field, budget 1.2x the minimum-bandwidth
   collection cost).  A count that moves is a solver behaviour change:
   pricing, ratio test, degeneracy handling, the crash start or the
   warm-start path.  The LP+LF counts come in two kinds: its lowering
   with the crash start removed, which runs the all-slack primal simplex
   (a guard on the kernel itself), and the planner as it runs. *)
let iteration_instance ~n ~n_samples ~k =
  let rng = Rng.create 20060403 in
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
  (topo, cost, samples, 1.2 *. anchor)

let iterations = function
  | Some s -> s.Lp.Revised.iterations
  | None -> Alcotest.fail "revised solver did not run"

(* The LP+LF lowering at [budget] solved from the all-slack basis: its
   crash start removed, as for an LP that states none. *)
let all_slack inst ~budget =
  Lp.Revised.solve
    { (Prospector.Lp_lf.problem inst ~budget) with Lp.Problem.start = None }

let test_pinned_iteration_counts () =
  List.iter
    (fun (n, n_samples, k, lp_no_lf, lp_lf) ->
      let topo, cost, samples, budget = iteration_instance ~n ~n_samples ~k in
      Alcotest.(check int)
        (Printf.sprintf "lp-lf n=%d" n)
        lp_no_lf
        (iterations
           (Prospector.Lp_no_lf.plan topo cost samples ~budget)
             .Prospector.Lp_no_lf.lp_stats);
      let inst = Prospector.Lp_lf.instance topo cost samples ~k in
      Alcotest.(check int)
        (Printf.sprintf "lp+lf n=%d all-slack" n)
        lp_lf (all_slack inst ~budget).Lp.Revised.stats.iterations;
      (* At 1.2x the budget row holds at the crash vertex: it is optimal. *)
      Alcotest.(check int)
        (Printf.sprintf "lp+lf n=%d crash" n)
        0
        (iterations
           (Prospector.Lp_lf.plan topo cost samples ~budget ~k)
             .Prospector.Lp_lf.lp_stats))
    [ (50, 15, 10, 58, 245); (100, 30, 20, 132, 812) ];
  (* A tight budget (0.5x the minimum-bandwidth cost) violates the budget
     row at the crash vertex: the dual simplex finishes the solve, every
     pivot a dual one, with no fallback to phase 1. *)
  let topo, cost, samples, budget =
    iteration_instance ~n:100 ~n_samples:30 ~k:20
  in
  let tight =
    match
      (Prospector.Lp_lf.plan topo cost samples ~budget:(budget /. 1.2 *. 0.5)
         ~k:20)
        .Prospector.Lp_lf.lp_stats
    with
    | Some s -> s
    | None -> Alcotest.fail "revised solver did not run"
  in
  Alcotest.(check (list int)) "tight crash: pivots, dual pivots, fallbacks"
    [ 542; 542; 0 ]
    [ tight.iterations; tight.dual_iterations; tight.dual_fallbacks ];
  (* Warm re-planning after a 1.05x budget move: from scratch, and warm
     from the first solve's basis, which stays optimal. *)
  let inst = Prospector.Lp_lf.instance topo cost samples ~k:20 in
  let first = Prospector.Lp_lf.plan topo cost samples ~budget ~k:20 in
  let budget = 1.05 *. budget in
  let cold = Prospector.Lp_lf.plan topo cost samples ~budget ~k:20 in
  let warm =
    Prospector.Lp_lf.plan ?warm_start:first.Prospector.Lp_lf.basis topo cost
      samples ~budget ~k:20
  in
  let slack = all_slack inst ~budget in
  Alcotest.(check int) "cold re-solve" 812 slack.Lp.Revised.stats.iterations;
  Alcotest.(check int) "crash re-solve" 0
    (iterations cold.Prospector.Lp_lf.lp_stats);
  Alcotest.(check int) "warm re-solve" 0
    (iterations warm.Prospector.Lp_lf.lp_stats);
  Alcotest.(check (float 0.)) "warm objective equals cold"
    cold.Prospector.Lp_lf.lp_objective warm.Prospector.Lp_lf.lp_objective;
  Alcotest.(check (float 1e-9)) "crash objective equals all-slack"
    (-.slack.Lp.Revised.objective) cold.Prospector.Lp_lf.lp_objective

(* The kernel's work counters are plain deterministic counts: identical
   across repeated solves and whether or not a trace sink is installed.
   On the n=100 LP+LF instance solved from the all-slack basis (the
   crash start solves it in 0 pivots) the pivot-row BTRANs must stay
   hypersparse: a full sweep would visit 2m steps per pivot. *)
let test_kernel_work_counters () =
  let topo, cost, samples, budget =
    iteration_instance ~n:100 ~n_samples:30 ~k:20
  in
  let inst = Prospector.Lp_lf.instance topo cost samples ~k:20 in
  let stats () = (all_slack inst ~budget).Lp.Revised.stats in
  let counts (s : Lp.Revised.stats) =
    [ s.iterations; s.ftran_steps; s.ftran_etas; s.btran_steps;
      s.btran_etas; s.lu_nnz ]
  in
  let first = stats () in
  Alcotest.(check (list int)) "repeat" (counts first) (counts (stats ()));
  let sink = Obs.Trace.create () in
  Obs.Trace.install (Some sink);
  let traced =
    Fun.protect ~finally:(fun () -> Obs.Trace.install None) stats
  in
  Alcotest.(check (list int)) "trace on" (counts first) (counts traced);
  let span =
    List.find
      (fun (e : Obs.Trace.event) -> e.Obs.Trace.name = "lp.revised")
      (Obs.Trace.events sink)
  in
  Alcotest.(check (option (float 0.))) "span carries btran_steps"
    (Some (float_of_int first.btran_steps))
    (Obs.Trace.number span "btran_steps");
  let m =
    (Lp.Model.to_problem
       (Prospector.Lp_lf.lp_model topo cost samples ~budget ~k:20))
      .Lp.Problem.nrows
  in
  let per_pivot =
    float_of_int (first.btran_steps + first.btran_etas)
    /. float_of_int first.iterations
  in
  if not (per_pivot < float_of_int m /. 10.) then
    Alcotest.failf "BTRAN visits %.1f per pivot, m = %d" per_pivot m;
  Alcotest.(check bool) "counters nonzero" true
    (first.ftran_steps > 0 && first.lu_nnz > 0)

(* Every planner entry point refuses a negative or NaN budget by name
   (NaN passes a [budget < 0.] test). *)
let test_budget_checks () =
  let topo, cost, samples, _ = iteration_instance ~n:50 ~n_samples:15 ~k:10 in
  let colsum = samples.Sampling.Sample_set.colsum in
  let entries =
    [
      ("Greedy.plan", fun budget -> ignore (Prospector.Greedy.plan topo cost samples ~budget));
      ( "Greedy.fallback",
        fun budget -> ignore (Prospector.Greedy.fallback topo cost ~colsum ~budget) );
      ( "Lp_lf.plan",
        fun budget -> ignore (Prospector.Lp_lf.plan topo cost samples ~budget ~k:10) );
      ( "Lp_lf.solve",
        let inst = Prospector.Lp_lf.instance topo cost samples ~k:10 in
        fun budget -> ignore (Prospector.Lp_lf.solve inst ~budget) );
      ( "Ship_lp.plan_by_colsum",
        fun budget -> ignore (Prospector.Ship_lp.plan_by_colsum topo cost ~colsum ~budget) );
    ]
  in
  List.iter
    (fun (who, f) ->
      List.iter
        (fun budget ->
          let expected =
            Printf.sprintf "%s: budget must be a non-negative number, got %g"
              who budget
          in
          match f budget with
          | () -> Alcotest.failf "%s accepted budget %g" who budget
          | exception Invalid_argument msg ->
              Alcotest.(check string) (who ^ " message") expected msg)
        [ -1.; Float.nan ])
    entries

let lp_proof_plans_are_valid =
  QCheck.Test.make
    ~name:"LP-PROOF plans have bandwidth >= 1 everywhere and prove a lot"
    ~count:25
    (QCheck.make ~print:string_of_int QCheck.Gen.(0 -- 100_000))
    (fun seed ->
      let topo, cost, samples, k, _ = small_instance (seed + 14) in
      let root = topo.Sensor.Topology.root in
      (* Generous budget: the LP should prove nearly everything. *)
      let r = Prospector.Lp_proof.plan topo cost samples ~budget:1e6 ~k in
      let bw_ok = ref true in
      for i = 0 to topo.Sensor.Topology.n - 1 do
        if i <> root && Prospector.Plan.bandwidth r.Prospector.Lp_proof.plan i < 1
        then bw_ok := false
      done;
      (* Execute the plan on the training samples: everything proven. *)
      let all_proven = ref true in
      Array.iter
        (fun readings ->
          let o =
            Prospector.Proof_exec.run topo cost r.Prospector.Lp_proof.plan ~k
              ~readings
          in
          if
            o.Prospector.Proof_exec.proven_count
            < Int.min k topo.Sensor.Topology.n
          then all_proven := false)
        samples.Sampling.Sample_set.values;
      !bw_ok && !all_proven)

(* ---------- Evaluate ---------- *)

let test_evaluate_points () =
  let topo, cost, samples, k, rng = small_instance 777 in
  let plan =
    (Prospector.Lp_lf.plan topo cost samples ~budget:20. ~k).Prospector.Lp_lf.plan
  in
  let f =
    Sampling.Field.random_gaussian rng ~n:topo.Sensor.Topology.n ~mean_lo:10.
      ~mean_hi:30. ~sigma_lo:0.5 ~sigma_hi:5.
  in
  let epochs = Array.init 5 (fun _ -> f.Sampling.Field.draw rng) in
  let p = Prospector.Evaluate.approx topo cost mica plan ~k ~epochs in
  Alcotest.(check bool) "accuracy in range" true
    (p.Prospector.Evaluate.accuracy >= 0. && p.Prospector.Evaluate.accuracy <= 1.);
  Alcotest.(check bool) "cost non-negative" true
    (Prospector.Evaluate.total_per_run_mj p >= 0.);
  let nk = Prospector.Evaluate.naive_k topo cost mica ~k ~epochs in
  Alcotest.(check (float 1e-9)) "naive accuracy" 1. nk.Prospector.Evaluate.accuracy;
  let e1, e2 =
    Prospector.Evaluate.exact topo cost mica
      (Prospector.Proof_exec.min_bandwidth_plan topo)
      ~k ~epochs
  in
  Alcotest.(check bool) "exact phases non-negative" true
    (e1.Prospector.Evaluate.collection_mj >= 0.
    && e2.Prospector.Evaluate.collection_mj >= 0.)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      exec_full_plan_is_exact;
      naive_k_exact;
      naive_one_exact;
      naive_tradeoff;
      oracle_perfect_and_cheap;
      oracle_proof_proves_k;
      lemma1_proven_are_subtree_top;
      exact_always_correct;
      exact_no_mopup_when_proven;
      exact_minimal_plan_correct;
      simnet_matches_analytic;
      greedy_respects_budget;
      lp_lf_dominates_lp_no_lf;
      lp_objectives_bounded;
      lp_objective_monotone_in_budget;
      lp_proof_plans_are_valid;
    ]

let () =
  Alcotest.run "prospector"
    [
      ( "plan",
        [
          Alcotest.test_case "normalize prunes dead branches" `Quick test_plan_normalize_prunes;
          Alcotest.test_case "normalize caps inflow" `Quick test_plan_normalize_caps;
          Alcotest.test_case "of_chosen" `Quick test_plan_of_chosen;
          Alcotest.test_case "of_fractional rounding" `Quick test_plan_of_fractional;
          Alcotest.test_case "chain costs" `Quick test_plan_costs_chain;
          Alcotest.test_case "participants" `Quick test_plan_participants;
        ] );
      ( "exec",
        [
          Alcotest.test_case "chain with filtering" `Quick test_exec_chain_filtering;
          Alcotest.test_case "empty plan" `Quick test_exec_empty_plan;
          Alcotest.test_case "value order" `Quick test_value_order_ties;
          Alcotest.test_case "truth and accuracy" `Quick test_true_top_k_and_accuracy;
        ] );
      ( "naive",
        [ Alcotest.test_case "NAIVE-k message count" `Quick test_naive_k_message_count ] );
      ( "proof",
        [
          Alcotest.test_case "zero bandwidth rejected" `Quick proof_rejects_zero_bandwidth;
          Alcotest.test_case "figure 2 scenario" `Quick test_proof_figure2_scenario;
        ] );
      ( "greedy",
        [
          Alcotest.test_case "zero budget" `Quick test_greedy_zero_budget;
          Alcotest.test_case "unbounded budget" `Quick test_greedy_unbounded_budget;
        ] );
      ( "lp_planners",
        [
          Alcotest.test_case "LP-LF picks the dominant node" `Quick test_lp_no_lf_star;
          Alcotest.test_case "LP+LF with generous budget" `Quick
            test_lp_lf_generous_budget_covers_everything;
          Alcotest.test_case "LP-PROOF budget check" `Quick test_lp_proof_budget_too_small;
          Alcotest.test_case "pinned simplex iteration counts" `Quick
            test_pinned_iteration_counts;
          Alcotest.test_case "kernel work counters" `Quick
            test_kernel_work_counters;
          Alcotest.test_case "budget checks" `Quick test_budget_checks;
        ] );
      ( "evaluate",
        [ Alcotest.test_case "points are sane" `Quick test_evaluate_points ] );
      ("properties", qcheck_cases);
    ]
