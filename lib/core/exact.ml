type outcome = {
  answer : (int * float) list;
  proven_after_phase1 : int;
  phase1_mj : float;
  phase2_mj : float;
  phase1_messages : int;
  phase2_messages : int;
  phase2_values : int;
}

let total_mj o = o.phase1_mj +. o.phase2_mj

let run topo cost mica plan ~k ~readings =
  Protocol.check_inputs "Exact.run" topo ~k ~readings;
  let phase1 = Proof_exec.run topo cost plan ~k ~readings in
  let states = phase1.Proof_exec.states in
  let children u = topo.Sensor.Topology.children.(u) in
  let finished c = states.(c).Proof_exec.sent_all in
  let phase2_mj = ref 0. and phase2_msgs = ref 0 and phase2_vals = ref 0 in
  let rec answer u req =
    Protocol.merge states.(u) req
      (gather (Protocol.mop_up states.(u) req ~children:(children u) ~finished))
  (* One request broadcast to the targets, then each target's answer is
     computed recursively and charged as one response unicast. *)
  and gather = function
    | None -> []
    | Some (targets, fwd) ->
        phase2_mj :=
          !phase2_mj
          +. Sensor.Mica2.broadcast_mj mica ~receivers:(List.length targets)
               ~bytes:(Protocol.payload_bytes mica (Protocol.Range fwd));
        incr phase2_msgs;
        List.concat_map
          (fun ch ->
            let sub = answer ch fwd in
            let count = List.length sub in
            phase2_mj :=
              !phase2_mj +. Sensor.Cost.message_mj cost ~node:ch ~values:count;
            incr phase2_msgs;
            phase2_vals := !phase2_vals + count;
            sub)
          targets
  in
  let root = topo.Sensor.Topology.root in
  let gathered =
    gather
      (Protocol.open_mop_up states.(root) ~k ~children:(children root)
         ~finished)
  in
  {
    answer = Protocol.merge states.(root) (Protocol.root_request ~k) gathered;
    proven_after_phase1 = phase1.Proof_exec.proven_count;
    phase1_mj = phase1.Proof_exec.collection_mj;
    phase2_mj = !phase2_mj;
    phase1_messages = phase1.Proof_exec.messages;
    phase2_messages = !phase2_msgs;
    phase2_values = !phase2_vals;
  }
