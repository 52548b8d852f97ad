(* Message-level protocol implementations vs the analytic executors: the
   strongest check that the planners' cost accounting matches what a real
   network of motes would spend. *)

let mica = Sensor.Mica2.default

let random_tree rng n =
  let parent = Array.init n (fun i -> if i = 0 then -1 else Rng.int rng i) in
  Sensor.Topology.of_parents ~root:0 parent

let random_readings rng n =
  Array.init n (fun _ -> Rng.gaussian rng ~mu:20. ~sigma:5.)

let ids answer = List.map fst answer

let naive_one_protocol_matches_analytic =
  QCheck.Test.make
    ~name:"NAIVE-1 protocol: same answer and energy as the analytic model"
    ~count:150
    (QCheck.make ~print:string_of_int QCheck.Gen.(0 -- 100_000))
    (fun seed ->
      let rng = Rng.create (seed + 51) in
      let n = 2 + Rng.int rng 30 in
      let k = 1 + Rng.int rng 8 in
      let topo = random_tree rng n in
      let cost = Sensor.Cost.of_mica2 topo mica in
      let readings = random_readings rng n in
      let analytic = Prospector.Naive.naive_one topo cost ~k ~readings in
      let proto = Prospector.Simnet_protocols.naive_one topo mica ~k ~readings () in
      ids analytic.Prospector.Naive.returned
      = ids proto.Prospector.Simnet_protocols.returned
      && Float.abs
           (proto.Prospector.Simnet_protocols.total_mj
           -. analytic.Prospector.Naive.collection_mj)
         < 1e-6
      && proto.Prospector.Simnet_protocols.unicasts
         = analytic.Prospector.Naive.messages)

let naive_k_via_simnet_matches =
  QCheck.Test.make
    ~name:"NAIVE-k as a full-bandwidth simnet plan: same answer and energy"
    ~count:150
    (QCheck.make ~print:string_of_int QCheck.Gen.(0 -- 100_000))
    (fun seed ->
      let rng = Rng.create (seed + 52) in
      let n = 2 + Rng.int rng 30 in
      let k = 1 + Rng.int rng 8 in
      let topo = random_tree rng n in
      let cost = Sensor.Cost.of_mica2 topo mica in
      let readings = random_readings rng n in
      let analytic = Prospector.Naive.naive_k topo cost ~k ~readings in
      let plan =
        Prospector.Plan.make topo
          (Array.mapi
             (fun i size ->
               if i = topo.Sensor.Topology.root then 0 else Int.min size k)
             topo.Sensor.Topology.subtree_size)
      in
      let proto = Prospector.Simnet_exec.collect topo mica plan ~k ~readings in
      let expected =
        analytic.Prospector.Naive.collection_mj
        +. Prospector.Naive.flood_trigger_mj topo mica
      in
      ids analytic.Prospector.Naive.returned
      = ids proto.Prospector.Simnet_exec.returned
      && Float.abs (proto.Prospector.Simnet_exec.total_mj -. expected) < 1e-6)

let proof_protocol_matches_analytic =
  QCheck.Test.make
    ~name:"proof protocol: same result, proven count and energy as Proof_exec"
    ~count:150
    (QCheck.make ~print:string_of_int QCheck.Gen.(0 -- 100_000))
    (fun seed ->
      let rng = Rng.create (seed + 53) in
      let n = 2 + Rng.int rng 25 in
      let k = 1 + Rng.int rng 6 in
      let topo = random_tree rng n in
      let cost = Sensor.Cost.of_mica2 topo mica in
      let readings = random_readings rng n in
      let plan =
        Prospector.Plan.make topo
          (Array.mapi
             (fun i size ->
               if i = topo.Sensor.Topology.root then 0
               else 1 + Rng.int rng (Int.min size (k + 2)))
             topo.Sensor.Topology.subtree_size)
      in
      let analytic = Prospector.Proof_exec.run topo cost plan ~k ~readings in
      let proto =
        Prospector.Simnet_protocols.proof_collect topo mica plan ~k ~readings ()
      in
      let expected_mj =
        analytic.Prospector.Proof_exec.collection_mj
        +. Prospector.Naive.flood_trigger_mj topo mica
      in
      ids analytic.Prospector.Proof_exec.result
      = ids proto.Prospector.Simnet_protocols.base.Prospector.Simnet_protocols.returned
      && proto.Prospector.Simnet_protocols.proven_count
         = analytic.Prospector.Proof_exec.proven_count
      && Float.abs
           (proto.Prospector.Simnet_protocols.base
              .Prospector.Simnet_protocols.total_mj
           -. expected_mj)
         < 1e-6)

let protocols_survive_failures =
  QCheck.Test.make
    ~name:"protocols deliver identical answers under transient failures"
    ~count:80
    (QCheck.make ~print:string_of_int QCheck.Gen.(0 -- 100_000))
    (fun seed ->
      let rng = Rng.create (seed + 54) in
      let n = 2 + Rng.int rng 20 in
      let k = 1 + Rng.int rng 5 in
      let topo = random_tree rng n in
      let readings = random_readings rng n in
      let failure =
        Sensor.Failure.uniform (Rng.create seed) ~n ~max_prob:0.5 ~max_factor:3.
      in
      let clean = Prospector.Simnet_protocols.naive_one topo mica ~k ~readings () in
      let lossy =
        Prospector.Simnet_protocols.naive_one topo mica
          ~failure:(failure, Rng.create (seed + 1))
          ~k ~readings ()
      in
      ids clean.Prospector.Simnet_protocols.returned
      = ids lossy.Prospector.Simnet_protocols.returned
      && lossy.Prospector.Simnet_protocols.total_mj
         >= clean.Prospector.Simnet_protocols.total_mj -. 1e-9)

let test_naive_one_latency_exceeds_naive_k () =
  (* Pipelining pays in latency: k sequential round trips dwarf the single
     bottom-up wave. *)
  let rng = Rng.create 7 in
  let n = 25 and k = 6 in
  let topo = random_tree rng n in
  let readings = random_readings rng n in
  let pull = Prospector.Simnet_protocols.naive_one topo mica ~k ~readings () in
  let plan =
    Prospector.Plan.make topo
      (Array.mapi
         (fun i size -> if i = 0 then 0 else Int.min size k)
         topo.Sensor.Topology.subtree_size)
  in
  let wave = Prospector.Simnet_exec.collect topo mica plan ~k ~readings in
  Alcotest.(check bool) "pull latency higher" true
    (pull.Prospector.Simnet_protocols.latency_s
    > wave.Prospector.Simnet_exec.latency_s)

let test_proof_protocol_rejects_zero_bandwidth () =
  let topo = random_tree (Rng.create 9) 5 in
  let plan = Prospector.Plan.make topo (Array.make 5 0) in
  Alcotest.check_raises "zero bandwidth"
    (Invalid_argument "Simnet_protocols.proof_collect: proof plans use every edge")
    (fun () ->
      ignore
        (Prospector.Simnet_protocols.proof_collect topo mica plan ~k:2
           ~readings:(Array.make 5 1.) ()))

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      naive_one_protocol_matches_analytic;
      naive_k_via_simnet_matches;
      proof_protocol_matches_analytic;
      protocols_survive_failures;
    ]

(* The two-phase exact protocol vs the analytic Exact. *)
let exact_protocol_matches_analytic =
  QCheck.Test.make
    ~name:"exact protocol: same answer, proven count and energy as Exact.run"
    ~count:200
    (QCheck.make ~print:string_of_int QCheck.Gen.(0 -- 100_000))
    (fun seed ->
      let rng = Rng.create (seed + 55) in
      let n = 2 + Rng.int rng 25 in
      let k = 1 + Rng.int rng 7 in
      let topo = random_tree rng n in
      let cost = Sensor.Cost.of_mica2 topo mica in
      let readings = random_readings rng n in
      let plan =
        Prospector.Plan.make topo
          (Array.mapi
             (fun i size ->
               if i = topo.Sensor.Topology.root then 0
               else 1 + Rng.int rng (Int.min size (k + 2)))
             topo.Sensor.Topology.subtree_size)
      in
      let analytic = Prospector.Exact.run topo cost mica plan ~k ~readings in
      let proto =
        Prospector.Simnet_protocols.exact topo mica plan ~k ~readings ()
      in
      let expected_mj =
        Prospector.Exact.total_mj analytic
        +. Prospector.Naive.flood_trigger_mj topo mica
      in
      ids analytic.Prospector.Exact.answer
      = ids proto.Prospector.Simnet_protocols.answer
      && proto.Prospector.Simnet_protocols.proven_after_phase1
         = analytic.Prospector.Exact.proven_after_phase1
      && Float.abs (proto.Prospector.Simnet_protocols.total_mj -. expected_mj)
         < 1e-6)

let exact_protocol_is_exact =
  QCheck.Test.make ~name:"exact protocol answers are the true top k"
    ~count:200
    (QCheck.make ~print:string_of_int QCheck.Gen.(0 -- 100_000))
    (fun seed ->
      let rng = Rng.create (seed + 56) in
      let n = 2 + Rng.int rng 30 in
      let k = 1 + Rng.int rng 7 in
      let topo = random_tree rng n in
      let readings = random_readings rng n in
      let plan = Prospector.Proof_exec.min_bandwidth_plan topo in
      let proto =
        Prospector.Simnet_protocols.exact topo mica plan ~k ~readings ()
      in
      ids proto.Prospector.Simnet_protocols.answer
      = ids (Prospector.Exec.true_top_k ~k readings))

(* Every executor entry point validates its inputs in one shared place:
   one reading per node and k >= 1. *)
let test_entry_points_validate_inputs () =
  let topo = random_tree (Rng.create 11) 4 in
  let cost = Sensor.Cost.of_mica2 topo mica in
  let plan = Prospector.Proof_exec.min_bandwidth_plan topo in
  let open Prospector in
  let entry_points : (string * (k:int -> readings:float array -> unit)) list =
    [
      ("Exec.collect", fun ~k ~readings ->
        ignore (Exec.collect topo cost plan ~k ~readings));
      ("Proof_exec.run", fun ~k ~readings ->
        ignore (Proof_exec.run topo cost plan ~k ~readings));
      ("Exact.run", fun ~k ~readings ->
        ignore (Exact.run topo cost mica plan ~k ~readings));
      ("Naive.naive_k", fun ~k ~readings ->
        ignore (Naive.naive_k topo cost ~k ~readings));
      ("Naive.naive_one", fun ~k ~readings ->
        ignore (Naive.naive_one topo cost ~k ~readings));
      ("Simnet_exec.collect", fun ~k ~readings ->
        ignore (Simnet_exec.collect topo mica plan ~k ~readings));
      ("Simnet_protocols.naive_one", fun ~k ~readings ->
        ignore (Simnet_protocols.naive_one topo mica ~k ~readings ()));
      ("Simnet_protocols.proof_collect", fun ~k ~readings ->
        ignore (Simnet_protocols.proof_collect topo mica plan ~k ~readings ()));
      ("Simnet_protocols.exact", fun ~k ~readings ->
        ignore (Simnet_protocols.exact topo mica plan ~k ~readings ()));
    ]
  in
  List.iter
    (fun (who, run) ->
      Alcotest.check_raises (who ^ " readings")
        (Invalid_argument (who ^ ": readings length mismatch"))
        (fun () -> run ~k:2 ~readings:(Array.make 5 1.));
      Alcotest.check_raises (who ^ " k")
        (Invalid_argument (who ^ ": k must be positive"))
        (fun () -> run ~k:0 ~readings:(Array.make 4 1.)))
    entry_points

(* Relabelling: node ids matter only for breaking ties, and continuous
   readings have none.  Permuting the non-root ids of a tree together with
   its readings and plans must permute every protocol's answer, on both
   transports, and leave its message count and energy unchanged (energy up
   to the order its per-message costs are summed in). *)
let relabelling_permutes_answers =
  QCheck.Test.make
    ~name:"relabelling node ids permutes every answer at the same cost"
    ~count:100
    (QCheck.make ~print:string_of_int QCheck.Gen.(0 -- 100_000))
    (fun seed ->
      let rng = Rng.create (seed + 57) in
      let n = 2 + Rng.int rng 25 in
      let k = 1 + Rng.int rng 6 in
      let topo = random_tree rng n in
      let readings = random_readings rng n in
      (* pi.(0) = 0 keeps the root; Fisher-Yates over ids 1 .. n-1. *)
      let pi = Array.init n Fun.id in
      for i = n - 1 downto 2 do
        let j = 1 + Rng.int rng i in
        let t = pi.(i) in
        pi.(i) <- pi.(j);
        pi.(j) <- t
      done;
      let permute a =
        let b = Array.copy a in
        Array.iteri (fun i x -> b.(pi.(i)) <- x) a;
        b
      in
      let parent' = Array.make n (-1) in
      Array.iteri
        (fun i p -> if p >= 0 then parent'.(pi.(i)) <- pi.(p))
        topo.Sensor.Topology.parent;
      let topo' = Sensor.Topology.of_parents ~root:0 parent' in
      let abw = Array.init n (fun i -> if i = 0 then 0 else Rng.int rng 3) in
      let pbw =
        Array.mapi
          (fun i size -> if i = 0 then 0 else 1 + Rng.int rng (Int.min size (k + 2)))
          topo.Sensor.Topology.subtree_size
      in
      let runs topo readings abw pbw =
        let cost = Sensor.Cost.of_mica2 topo mica in
        let aplan = Prospector.Plan.make topo abw in
        let pplan = Prospector.Plan.make topo pbw in
        let open Prospector in
        let exec (o : Exec.outcome) =
          (o.returned, o.collection_mj, [ o.messages; o.values_sent ])
        in
        let sim (r : Simnet_protocols.result) =
          (r.returned, r.total_mj, [ r.unicasts ])
        in
        [
          exec (Exec.collect topo cost aplan ~k ~readings);
          exec (Naive.naive_k topo cost ~k ~readings);
          exec (Naive.naive_one topo cost ~k ~readings);
          (let o = Proof_exec.run topo cost pplan ~k ~readings in
           ( o.result,
             o.collection_mj,
             [ o.messages; o.values_sent; o.proven_count ] ));
          (let o = Exact.run topo cost mica pplan ~k ~readings in
           ( o.answer,
             Exact.total_mj o,
             [
               o.proven_after_phase1;
               o.phase1_messages;
               o.phase2_messages;
               o.phase2_values;
             ] ));
          (let r = Simnet_exec.collect topo mica aplan ~k ~readings in
           (r.returned, r.total_mj, [ r.unicasts ]));
          sim (Simnet_protocols.naive_one topo mica ~k ~readings ());
          (let r = Simnet_protocols.proof_collect topo mica pplan ~k ~readings () in
           (r.base.returned, r.base.total_mj, [ r.base.unicasts; r.proven_count ]));
          (let r = Simnet_protocols.exact topo mica pplan ~k ~readings () in
           (r.answer, r.total_mj, [ r.unicasts; r.proven_after_phase1 ]));
        ]
      in
      List.for_all2
        (fun (answer, mj, counts) (answer', mj', counts') ->
          List.map (fun (i, v) -> (pi.(i), v)) answer = answer'
          && Float.abs (mj -. mj') < 1e-9
          && counts = counts')
        (runs topo readings abw pbw)
        (runs topo' (permute readings) (permute abw) (permute pbw)))

let () =
  Alcotest.run "protocols"
    [
      ( "protocols",
        [
          Alcotest.test_case "pipelining costs latency" `Quick
            test_naive_one_latency_exceeds_naive_k;
          Alcotest.test_case "proof plan validation" `Quick
            test_proof_protocol_rejects_zero_bandwidth;
          Alcotest.test_case "entry points validate inputs" `Quick
            test_entry_points_validate_inputs;
        ] );
      ( "properties",
        qcheck_cases
        @ List.map QCheck_alcotest.to_alcotest
            [
              exact_protocol_matches_analytic;
              exact_protocol_is_exact;
              relabelling_permutes_answers;
            ] );
    ]
