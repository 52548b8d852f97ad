type result = {
  returned : (int * float) list;
  total_mj : float;
  per_node_mj : float array;
  latency_s : float;
  unicasts : int;
  retransmissions : int;
  dark : int list;
}

let result topo (run : Simnet_exec.run) returned =
  let engine = run.Simnet_exec.engine in
  {
    returned;
    total_mj = Simnet.Engine.total_energy engine;
    per_node_mj =
      Array.init topo.Sensor.Topology.n (fun i ->
          Simnet.Engine.energy_of engine i);
    latency_s = run.Simnet_exec.latency_s;
    unicasts = Simnet.Engine.unicasts_sent engine;
    retransmissions = Simnet.Engine.retransmissions_sent engine;
    dark = run.Simnet_exec.dark;
  }

(* ---------------- NAIVE-1: the pull pipeline ---------------- *)

let naive_one topo mica ?failure ?fault ?policy ~k ~readings () =
  Protocol.check_inputs "Simnet_protocols.naive_one" topo ~k ~readings;
  let n = topo.Sensor.Topology.n in
  let root = topo.Sensor.Topology.root in
  let pullers =
    Array.init n (fun u ->
        Protocol.puller ~own:(u, readings.(u))
          ~children:topo.Sensor.Topology.children.(u))
  in
  (* pending: outstanding child pulls; serving: a pull from the parent (or
     the query station, at the root) awaits this node's answer. *)
  let pending = Array.make n 0 and serving = Array.make n false in
  let answer = ref [] and remaining = ref k in
  (* Ask the children owing the heap a value, then pop once they have all
     answered. *)
  let rec progress api u =
    let st = pullers.(u) in
    List.iter
      (fun c ->
        pending.(u) <- pending.(u) + 1;
        api.Simnet.Engine.send ~dst:c Protocol.Pull)
      (Protocol.to_ask st);
    if pending.(u) = 0 && serving.(u) then begin
      serving.(u) <- false;
      let popped = Protocol.pop st in
      if u = root then begin
        (match popped with
        | Some entry ->
            answer := entry :: !answer;
            decr remaining
        | None -> remaining := 0);
        if !remaining > 0 then begin
          serving.(u) <- true;
          progress api u
        end
      end
      else
        api.Simnet.Engine.send ~dst:topo.Sensor.Topology.parent.(u)
          (Protocol.Pulled popped)
    end
  in
  let run =
    Simnet_exec.simulate topo mica ~failure ~fault ~policy ~start:Protocol.Pull
      (fun api u ~src -> function
        | Protocol.Pull ->
            serving.(u) <- true;
            progress api u
        | Protocol.Pulled r ->
            pending.(u) <- pending.(u) - 1;
            Protocol.receive pullers.(u) ~src r;
            progress api u
        | Protocol.Trigger | Protocol.Report _ | Protocol.Range _
        | Protocol.Ranged _ ->
            ())
  in
  result topo run (List.rev !answer)

(* -------- proof-carrying collection and two-phase exact -------- *)

type proof_result = { base : result; proven_count : int }

type exact_result = {
  answer : (int * float) list;
  proven_after_phase1 : int;
  total_mj : float;
  latency_s : float;
  unicasts : int;
  retransmissions : int;
  dark : int list;
}

type node = {
  (* phase 1 *)
  mutable reports : (int * Protocol.report) list;  (* tagged by child *)
  mutable pending : int;
  mutable kept : Protocol.kept;
  (* phase 2 *)
  mutable request : Protocol.request;  (* the one being served *)
  mutable mop_pending : int;
  mutable gathered : (int * float) list;
}

(* Phase 1 (proof-carrying collection) and, unless [phase1_only], the
   mop-up phase of range requests served from phase-1 memory.  Returns the
   root's answer, its proven count and the run. *)
let two_phase ~who ~phase1_only topo mica ~failure ~fault ~policy plan ~k
    ~readings =
  Protocol.check_inputs who topo ~k ~readings;
  Protocol.check_every_edge topo plan (who ^ ": proof plans use every edge");
  let n = topo.Sensor.Topology.n in
  let root = topo.Sensor.Topology.root in
  let children u = topo.Sensor.Topology.children.(u) in
  let nodes =
    Array.init n (fun u ->
        {
          reports = [];
          pending = Array.length (children u);
          kept = { retrieved = []; sent = []; proven = []; sent_all = false };
          request = Protocol.root_request ~k;
          mop_pending = 0;
          gathered = [];
        })
  in
  let finished st c =
    List.exists
      (fun (c', (r : Protocol.report)) -> c' = c && r.sent_all)
      st.reports
  in
  let answer = ref [] and root_proven = ref 0 in
  let reply api u values =
    if u = root then answer := values
    else
      api.Simnet.Engine.send ~dst:topo.Sensor.Topology.parent.(u)
        (Protocol.Ranged values)
  in
  let serve api u = function
    | None -> reply api u (Protocol.merge nodes.(u).kept nodes.(u).request [])
    | Some (targets, fwd) ->
        let st = nodes.(u) in
        st.mop_pending <- List.length targets;
        st.gathered <- [];
        api.Simnet.Engine.multicast ~dsts:targets (Protocol.Range fwd)
  in
  let phase1_done api u =
    let st = nodes.(u) in
    st.kept <-
      Protocol.prove ~own:(u, readings.(u)) ~reports:st.reports
        ~cap:(if u = root then k else Plan.bandwidth plan u)
        ~subtree_size:topo.Sensor.Topology.subtree_size.(u);
    if u <> root then
      api.Simnet.Engine.send ~dst:topo.Sensor.Topology.parent.(u)
        (Protocol.Report (Protocol.report_of st.kept))
    else begin
      root_proven := List.length st.kept.proven;
      if phase1_only then answer := st.kept.sent
      else
        serve api u
          (Protocol.open_mop_up st.kept ~k ~children:(children u)
             ~finished:(finished st))
    end
  in
  let run =
    Simnet_exec.simulate topo mica ~failure ~fault ~policy ~start:Protocol.Trigger
      (fun api u ~src msg ->
        let st = nodes.(u) in
        match msg with
        | Protocol.Trigger ->
            if st.pending = 0 then phase1_done api u
            else
              api.Simnet.Engine.multicast ~dsts:(Array.to_list (children u))
                Protocol.Trigger
        | Protocol.Report r ->
            (* Once the count is reached the reports are frozen: one can
               still arrive late, from a child already given up on. *)
            if st.pending > 0 then begin
              st.reports <- (src, r) :: st.reports;
              st.pending <- st.pending - 1;
              if st.pending = 0 then phase1_done api u
            end
        | Protocol.Range req ->
            st.request <- req;
            serve api u
              (Protocol.mop_up st.kept req ~children:(children u)
                 ~finished:(finished st))
        | Protocol.Ranged values ->
            st.gathered <- List.rev_append values st.gathered;
            st.mop_pending <- st.mop_pending - 1;
            if st.mop_pending = 0 then
              reply api u (Protocol.merge st.kept st.request st.gathered)
        | Protocol.Pull | Protocol.Pulled _ -> ())
  in
  (!answer, !root_proven, run)

let proof_collect topo mica ?failure ?fault ?policy plan ~k ~readings () =
  let returned, proven_count, run =
    two_phase ~who:"Simnet_protocols.proof_collect" ~phase1_only:true topo mica
      ~failure ~fault ~policy plan ~k ~readings
  in
  { base = result topo run returned; proven_count }

let exact topo mica ?failure ?fault ?policy plan ~k ~readings () =
  let answer, proven_after_phase1, run =
    two_phase ~who:"Simnet_protocols.exact" ~phase1_only:false topo mica
      ~failure ~fault ~policy plan ~k ~readings
  in
  let r = result topo run answer in
  {
    answer;
    proven_after_phase1;
    total_mj = r.total_mj;
    latency_s = r.latency_s;
    unicasts = r.unicasts;
    retransmissions = r.retransmissions;
    dark = r.dark;
  }
