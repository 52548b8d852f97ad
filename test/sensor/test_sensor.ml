(* Tests for the network substrate: MICA2 energy model, placements,
   spanning-tree topology, failures and the cost model. *)

let check_float = Alcotest.(check (float 1e-9))

(* ---- Mica2 ---- *)

let test_mica2_costs () =
  let m = Sensor.Mica2.default in
  let cb = Sensor.Mica2.per_byte_mj m in
  check_float "per-byte split" cb
    (Sensor.Mica2.send_byte_mj m +. Sensor.Mica2.recv_byte_mj m);
  check_float "empty unicast = cm" m.Sensor.Mica2.per_message_mj
    (Sensor.Mica2.unicast_bytes_mj m ~bytes:0);
  check_float "values scale"
    (m.Sensor.Mica2.per_message_mj
    +. (cb *. float_of_int (3 * m.Sensor.Mica2.bytes_per_value)))
    (Sensor.Mica2.unicast_values_mj m ~values:3);
  Alcotest.(check bool) "cm dominates one value" true
    (m.Sensor.Mica2.per_message_mj
    > cb *. float_of_int m.Sensor.Mica2.bytes_per_value);
  Alcotest.check_raises "negative size rejected"
    (Invalid_argument "Mica2.unicast_bytes_mj: negative size") (fun () ->
      ignore (Sensor.Mica2.unicast_bytes_mj m ~bytes:(-1)))

let test_mica2_broadcast () =
  let m = Sensor.Mica2.default in
  let c0 = Sensor.Mica2.broadcast_mj m ~receivers:0 ~bytes:10 in
  let c3 = Sensor.Mica2.broadcast_mj m ~receivers:3 ~bytes:10 in
  Alcotest.(check bool) "receivers add cost" true (c3 > c0);
  check_float "trigger is empty broadcast"
    (Sensor.Mica2.broadcast_mj m ~receivers:2 ~bytes:0)
    (Sensor.Mica2.trigger_mj m ~receivers:2)

(* ---- Placement ---- *)

let test_uniform_placement () =
  let rng = Rng.create 1 in
  let p = Sensor.Placement.uniform rng ~n:50 ~width:100. ~height:80. () in
  Alcotest.(check int) "node count" 50 (Sensor.Placement.n p);
  let root_pos = p.Sensor.Placement.positions.(p.Sensor.Placement.root) in
  check_float "root centered x" 50. root_pos.Sensor.Placement.x;
  check_float "root centered y" 40. root_pos.Sensor.Placement.y;
  Array.iter
    (fun q ->
      Alcotest.(check bool) "inside rectangle" true
        (q.Sensor.Placement.x >= 0.
        && q.Sensor.Placement.x <= 100.
        && q.Sensor.Placement.y >= 0.
        && q.Sensor.Placement.y <= 80.))
    p.Sensor.Placement.positions

let test_zones_placement () =
  let rng = Rng.create 2 in
  let p =
    Sensor.Placement.zones rng ~n_zones:6 ~per_zone:10 ~background:20
      ~width:100. ~height:100. ()
  in
  Alcotest.(check int) "node count" 81 (Sensor.Placement.n p);
  let per_zone = Array.make 6 0 in
  let background = ref 0 in
  Array.iteri
    (fun i z ->
      if i <> p.Sensor.Placement.root then
        if z >= 0 then per_zone.(z) <- per_zone.(z) + 1 else incr background)
    p.Sensor.Placement.zone;
  Array.iteri
    (fun z c -> Alcotest.(check int) (Printf.sprintf "zone %d size" z) 10 c)
    per_zone;
  Alcotest.(check int) "background size" 20 !background;
  Alcotest.(check int) "root not zoned" (-1)
    p.Sensor.Placement.zone.(p.Sensor.Placement.root)

let test_grid_placement () =
  let p = Sensor.Placement.grid ~rows:3 ~cols:4 ~spacing:2. in
  Alcotest.(check int) "node count" 12 (Sensor.Placement.n p);
  check_float "width" 6. p.Sensor.Placement.width;
  check_float "height" 4. p.Sensor.Placement.height

(* ---- Topology ---- *)

let chain_topology n =
  (* 0 <- 1 <- 2 <- ... <- n-1 *)
  Sensor.Topology.of_parents ~root:0 (Array.init n (fun i -> i - 1))

let star_topology n = Sensor.Topology.of_parents ~root:0 (Array.make n 0 |> fun a -> a.(0) <- -1; a)

let test_of_parents_chain () =
  let t = chain_topology 5 in
  Alcotest.(check int) "height" 4 (Sensor.Topology.height t);
  Alcotest.(check int) "subtree of root" 5 t.Sensor.Topology.subtree_size.(0);
  Alcotest.(check int) "subtree of leaf" 1 t.Sensor.Topology.subtree_size.(4);
  Alcotest.(check (list int)) "path to root" [ 3; 2; 1; 0 ]
    (Sensor.Topology.path_to_root t 3);
  Alcotest.(check bool) "ancestor reflexive" true
    (Sensor.Topology.is_ancestor t ~anc:2 ~desc:2);
  Alcotest.(check bool) "ancestor chain" true
    (Sensor.Topology.is_ancestor t ~anc:1 ~desc:4);
  Alcotest.(check bool) "not ancestor" false
    (Sensor.Topology.is_ancestor t ~anc:4 ~desc:1)

let test_of_parents_rejects_cycle () =
  (* 1 and 2 point at each other. *)
  let parent = [| -1; 2; 1 |] in
  Alcotest.check_raises "cycle rejected"
    (Invalid_argument "Topology.of_parents: parent array contains a cycle")
    (fun () -> ignore (Sensor.Topology.of_parents ~root:0 parent))

let test_post_order_children_first () =
  let t = chain_topology 4 in
  Alcotest.(check (array int)) "post order" [| 3; 2; 1; 0 |]
    (Sensor.Topology.post_order t)

let test_descendants () =
  let t = star_topology 5 in
  Alcotest.(check int) "star height" 1 (Sensor.Topology.height t);
  Alcotest.(check (list int)) "leaf descendants" [ 3 ]
    (Sensor.Topology.descendants t 3);
  Alcotest.(check int) "root descendants" 5
    (List.length (Sensor.Topology.descendants t 0))

let test_build_connected () =
  let rng = Rng.create 3 in
  let p = Sensor.Placement.uniform rng ~n:60 ~width:60. ~height:60. () in
  let range = Sensor.Topology.min_connecting_range p in
  let t = Sensor.Topology.build p ~range:(range +. 1e-9) in
  Alcotest.(check int) "all nodes in tree" 60 t.Sensor.Topology.n;
  (* Each node's parent must be within radio range. *)
  Array.iteri
    (fun i par ->
      if par >= 0 then
        Alcotest.(check bool) "link within range" true
          (Sensor.Placement.dist p.Sensor.Placement.positions.(i)
             p.Sensor.Placement.positions.(par)
          <= range +. 1e-6))
    t.Sensor.Topology.parent

let test_build_disconnected () =
  let rng = Rng.create 4 in
  let p = Sensor.Placement.uniform rng ~n:30 ~width:100. ~height:100. () in
  let range = Sensor.Topology.min_connecting_range p in
  (try
     ignore (Sensor.Topology.build p ~range:(range *. 0.5));
     Alcotest.fail "expected Disconnected"
   with Sensor.Topology.Disconnected missing ->
     Alcotest.(check bool) "some nodes missing" true (missing <> []))

let test_build_min_hop () =
  (* With a generous range the tree must be a star (everyone 1 hop). *)
  let rng = Rng.create 5 in
  let p = Sensor.Placement.uniform rng ~n:20 ~width:10. ~height:10. () in
  let t = Sensor.Topology.build p ~range:100. in
  Alcotest.(check int) "height 1" 1 (Sensor.Topology.height t)

let min_range_matches_build =
  QCheck.Test.make ~name:"min_connecting_range is tight" ~count:50
    (QCheck.make ~print:string_of_int QCheck.Gen.(0 -- 10_000))
    (fun seed ->
      let rng = Rng.create seed in
      let n = 2 + Rng.int rng 40 in
      let p =
        Sensor.Placement.uniform rng ~n ~width:50. ~height:50. ()
      in
      let r = Sensor.Topology.min_connecting_range p in
      (* Connected at r (+eps), disconnected just below it. *)
      let connected_at range =
        match Sensor.Topology.build p ~range with
        | _ -> true
        | exception Sensor.Topology.Disconnected _ -> false
      in
      connected_at (r +. 1e-9) && ((not (connected_at (r *. 0.999))) || r = 0.))

(* ---- Failure & Cost ---- *)

let test_failure_multiplier () =
  let f =
    {
      Sensor.Failure.fail_prob = [| 0.; 0.5 |];
      reroute_factor = [| 2.; 3. |];
    }
  in
  check_float "no failure" 1. (Sensor.Failure.expected_multiplier f 0);
  check_float "half at 3x" 2. (Sensor.Failure.expected_multiplier f 1)

let test_cost_model () =
  let t = chain_topology 3 in
  let m = Sensor.Mica2.default in
  let c = Sensor.Cost.of_mica2 t m in
  check_float "message cost matches mica2"
    (Sensor.Mica2.unicast_values_mj m ~values:4)
    (Sensor.Cost.message_mj c ~node:1 ~values:4);
  let f =
    {
      Sensor.Failure.fail_prob = [| 0.; 1.; 0. |];
      reroute_factor = [| 1.; 2.; 1. |];
    }
  in
  let c' = Sensor.Cost.with_failures c f in
  check_float "inflated edge doubles"
    (2. *. Sensor.Cost.message_mj c ~node:1 ~values:1)
    (Sensor.Cost.message_mj c' ~node:1 ~values:1);
  check_float "other edges unchanged"
    (Sensor.Cost.message_mj c ~node:2 ~values:1)
    (Sensor.Cost.message_mj c' ~node:2 ~values:1)

let qcheck_cases = List.map QCheck_alcotest.to_alcotest [ min_range_matches_build ]

let () =
  Alcotest.run "sensor"
    [
      ( "mica2",
        [
          Alcotest.test_case "unicast costs" `Quick test_mica2_costs;
          Alcotest.test_case "broadcast costs" `Quick test_mica2_broadcast;
        ] );
      ( "placement",
        [
          Alcotest.test_case "uniform" `Quick test_uniform_placement;
          Alcotest.test_case "zones" `Quick test_zones_placement;
          Alcotest.test_case "grid" `Quick test_grid_placement;
        ] );
      ( "topology",
        [
          Alcotest.test_case "chain invariants" `Quick test_of_parents_chain;
          Alcotest.test_case "cycle rejected" `Quick test_of_parents_rejects_cycle;
          Alcotest.test_case "post order" `Quick test_post_order_children_first;
          Alcotest.test_case "descendants" `Quick test_descendants;
          Alcotest.test_case "build connected" `Quick test_build_connected;
          Alcotest.test_case "build disconnected" `Quick test_build_disconnected;
          Alcotest.test_case "min-hop tree" `Quick test_build_min_hop;
        ] );
      ( "failure_cost",
        [
          Alcotest.test_case "failure multiplier" `Quick test_failure_multiplier;
          Alcotest.test_case "cost model" `Quick test_cost_model;
        ] );
      ("properties", qcheck_cases);
    ]
