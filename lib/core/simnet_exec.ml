type result = {
  returned : (int * float) list;
  total_mj : float;
  per_node_mj : float array;
  latency_s : float;
  unicasts : int;
  reroutes : int;
  retransmissions : int;
  dark : int list;
  give_ups : (int * float) list;
  gave_up_frames : int;
}

type run = {
  engine : Protocol.msg Simnet.Engine.t;
  latency_s : float;
  dark : int list;
  give_ups : (int * float) list;
}

let simulate topo mica ~failure ~fault ~policy ~start handle =
  let engine =
    Simnet.Engine.create topo mica ?failure ?fault ?policy
      ~payload_bytes:(Protocol.payload_bytes mica) ()
  in
  (* Give-ups in event order (deterministic per seed): the unreachable
     endpoint and the time its sender abandoned it.  The whole subtree
     under that endpoint is dark. *)
  let give_ups = ref [] and dark = ref [] in
  for u = 0 to topo.Sensor.Topology.n - 1 do
    Simnet.Engine.on_message engine ~node:u (fun api ~src msg ->
        handle api u ~src msg);
    (* Degradation: an unreachable child answers with silence and the
       protocol proceeds without it; an unreachable parent orphans this
       node's whole branch. *)
    Simnet.Engine.on_give_up engine ~node:u (fun api ~dst msg ->
        give_ups := (dst, api.Simnet.Engine.time ()) :: !give_ups;
        dark := List.rev_append (Sensor.Topology.descendants topo dst) !dark;
        Option.iter (handle api u ~src:dst) (Protocol.silence msg))
  done;
  Simnet.Engine.inject engine ~node:topo.Sensor.Topology.root start;
  let latency_s = Simnet.Engine.run engine in
  {
    engine;
    latency_s;
    dark = List.sort_uniq Int.compare !dark;
    give_ups = List.rev !give_ups;
  }

let collect topo mica ?failure ?fault ?policy plan ~k ~readings =
  Protocol.check_inputs "Simnet_exec.collect" topo ~k ~readings;
  let root = topo.Sensor.Topology.root in
  let n = topo.Sensor.Topology.n in
  let participating_children =
    Array.init n (fun u ->
        Array.to_list topo.Sensor.Topology.children.(u)
        |> List.filter (fun c -> Plan.bandwidth plan c > 0))
  in
  let pending = Array.init n (fun u -> List.length participating_children.(u)) in
  let inbox = Array.make n [] in
  let answer = ref [] in
  let report api u =
    let own = (u, readings.(u)) in
    if u = root then answer := Protocol.filter ~own ~received:inbox.(u) ~cap:k
    else
      let values =
        Protocol.filter ~own ~received:inbox.(u) ~cap:(Plan.bandwidth plan u)
      in
      api.Simnet.Engine.send ~dst:topo.Sensor.Topology.parent.(u)
        (Protocol.Report { values; proven = 0; sent_all = false })
  in
  let run =
    simulate topo mica ~failure ~fault ~policy ~start:Protocol.Trigger
      (fun api u ~src:_ -> function
        | Protocol.Trigger ->
            let kids = participating_children.(u) in
            if kids = [] then report api u
            else api.Simnet.Engine.multicast ~dsts:kids Protocol.Trigger
        | Protocol.Report r ->
            inbox.(u) <- List.rev_append r.Protocol.values inbox.(u);
            pending.(u) <- pending.(u) - 1;
            if pending.(u) = 0 then report api u
        | Protocol.Pull | Protocol.Pulled _ | Protocol.Range _
        | Protocol.Ranged _ ->
            ())
  in
  let engine = run.engine in
  {
    returned = !answer;
    total_mj = Simnet.Engine.total_energy engine;
    per_node_mj = Array.init n (fun i -> Simnet.Engine.energy_of engine i);
    latency_s = run.latency_s;
    unicasts = Simnet.Engine.unicasts_sent engine;
    reroutes = Simnet.Engine.reroutes engine;
    retransmissions = Simnet.Engine.retransmissions_sent engine;
    dark = run.dark;
    give_ups = run.give_ups;
    gave_up_frames = Simnet.Engine.gave_up engine;
  }
