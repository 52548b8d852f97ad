type outcome = {
  returned : (int * float) list;
  collection_mj : float;
  messages : int;
  values_sent : int;
}

let value_order = Protocol.value_order
let take_prefix = Protocol.take_prefix

let collect topo cost plan ~k ~readings =
  Protocol.check_inputs "Exec.collect" topo ~k ~readings;
  let root = topo.Sensor.Topology.root in
  (* outbox.(i): the sorted list node i sends to its parent. *)
  let outbox = Array.make topo.Sensor.Topology.n [] in
  let received u =
    Array.fold_left
      (fun acc c -> List.rev_append outbox.(c) acc)
      [] topo.Sensor.Topology.children.(u)
  in
  let energy = ref 0. in
  let messages = ref 0 in
  let values_sent = ref 0 in
  Array.iter
    (fun u ->
      if u <> root && Plan.bandwidth plan u > 0 then begin
        let sent =
          Protocol.filter ~own:(u, readings.(u)) ~received:(received u)
            ~cap:(Plan.bandwidth plan u)
        in
        outbox.(u) <- sent;
        let count = List.length sent in
        energy := !energy +. Sensor.Cost.message_mj cost ~node:u ~values:count;
        incr messages;
        values_sent := !values_sent + count
      end)
    (Sensor.Topology.post_order topo);
  {
    returned =
      Protocol.filter ~own:(root, readings.(root)) ~received:(received root)
        ~cap:k;
    collection_mj = !energy;
    messages = !messages;
    values_sent = !values_sent;
  }

let true_top_k ~k readings =
  let all = Array.to_list (Array.mapi (fun i v -> (i, v)) readings) in
  take_prefix k (List.sort value_order all)

let accuracy ~k ~readings answer =
  let truth = true_top_k ~k readings in
  let answered = Hashtbl.create 16 in
  List.iter (fun (i, _) -> Hashtbl.replace answered i ()) answer;
  let hits =
    List.fold_left
      (fun acc (i, _) -> if Hashtbl.mem answered i then acc + 1 else acc)
      0 truth
  in
  float_of_int hits /. float_of_int (List.length truth)
