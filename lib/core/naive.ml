type outcome = Exec.outcome = {
  returned : (int * float) list;
  collection_mj : float;
  messages : int;
  values_sent : int;
}

let naive_k topo cost ~k ~readings =
  Protocol.check_inputs "Naive.naive_k" topo ~k ~readings;
  let plan =
    Plan.make topo (Array.map (Int.min k) topo.Sensor.Topology.subtree_size)
  in
  Exec.collect topo cost plan ~k ~readings

let naive_one topo cost ~k ~readings =
  Protocol.check_inputs "Naive.naive_one" topo ~k ~readings;
  let pullers =
    Array.init topo.Sensor.Topology.n (fun u ->
        Protocol.puller ~own:(u, readings.(u))
          ~children:topo.Sensor.Topology.children.(u))
  in
  let energy = ref 0. and messages = ref 0 and values_sent = ref 0 in
  (* Both the pull and its answer travel the child's uplink edge. *)
  let charge child msg =
    let values = Protocol.values_carried msg in
    energy := !energy +. Sensor.Cost.message_mj cost ~node:child ~values;
    incr messages;
    values_sent := !values_sent + values
  in
  let rec pull u =
    let st = pullers.(u) in
    List.iter
      (fun child ->
        charge child Protocol.Pull;
        let answer = pull child in
        charge child (Protocol.Pulled answer);
        Protocol.receive st ~src:child answer)
      (Protocol.to_ask st);
    Protocol.pop st
  in
  let rec draw acc remaining =
    if remaining = 0 then List.rev acc
    else
      match pull topo.Sensor.Topology.root with
      | None -> List.rev acc
      | Some entry -> draw (entry :: acc) (remaining - 1)
  in
  let returned = draw [] k in
  {
    returned;
    collection_mj = !energy;
    messages = !messages;
    values_sent = !values_sent;
  }

let flood_trigger_mj topo mica =
  let acc = ref 0. in
  Array.iter
    (fun u ->
      let kids = Array.length topo.Sensor.Topology.children.(u) in
      if kids > 0 then
        acc := !acc +. Sensor.Mica2.trigger_mj mica ~receivers:kids)
    topo.Sensor.Topology.bfs_order;
  !acc
