type node_state = Protocol.kept = {
  retrieved : (int * float) list;
  sent : (int * float) list;
  proven : (int * float) list;
  sent_all : bool;
}

type outcome = {
  result : (int * float) list;
  proven_count : int;
  states : node_state array;
  collection_mj : float;
  messages : int;
  values_sent : int;
}

let min_bandwidth_plan topo =
  Plan.make topo (Array.make topo.Sensor.Topology.n 1)

let run topo cost plan ~k ~readings =
  Protocol.check_inputs "Proof_exec.run" topo ~k ~readings;
  Protocol.check_every_edge topo plan
    "Proof_exec.run: proof plans must use every edge";
  let root = topo.Sensor.Topology.root in
  (* Post-order fills every child's state before its parent reads it. *)
  let states =
    Array.make topo.Sensor.Topology.n
      { retrieved = []; sent = []; proven = []; sent_all = false }
  in
  let energy = ref 0. and messages = ref 0 and values_sent = ref 0 in
  Array.iter
    (fun u ->
      let reports =
        Array.to_list topo.Sensor.Topology.children.(u)
        |> List.map (fun c -> (c, Protocol.report_of states.(c)))
      in
      let st =
        Protocol.prove ~own:(u, readings.(u)) ~reports
          ~cap:(if u = root then k else Plan.bandwidth plan u)
          ~subtree_size:topo.Sensor.Topology.subtree_size.(u)
      in
      states.(u) <- st;
      if u <> root then begin
        let count = List.length st.sent in
        energy := !energy +. Sensor.Cost.message_mj cost ~node:u ~values:count;
        incr messages;
        values_sent := !values_sent + count
      end)
    (Sensor.Topology.post_order topo);
  {
    result = states.(root).sent;
    proven_count = List.length states.(root).proven;
    states;
    collection_mj = !energy;
    messages = !messages;
    values_sent = !values_sent;
  }
