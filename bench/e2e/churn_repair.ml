(* churn-repair: a self-healing controller over lossy simulated
   collections while six victims crash and restart, one 20-epoch slot
   each.  The deterministic campaign, each on a fresh set-up, is
   repeated for the whole run. *)

open Common

let name = "churn-repair"
let victims = 6
let slot = 20
let down_from = 2
let down_until = 12
let drop = 0.05

type env = {
  it : instance;
  initial : Prospector.Plan.t;
  victim : int array;
  probe : Prospector.Plan.t;
  epochs : epoch array;
}

let setup ctx =
  let n, m, k = if ctx.smoke then (24, 40, 3) else (100, 160, 10) in
  let rng = corpus_rng 6 in
  let it = make_instance rng ~n ~m ~k ~budget_factor:0.7 in
  let first = Prospector.Lp_lf.plan it.topo it.cost it.samples ~budget:it.budget ~k in
  if not (certified first.Prospector.Lp_lf.certify) then fail "%s: initial plan is not certified" name;
  let initial = first.Prospector.Lp_lf.plan in
  let topo = it.topo in
  let by_subtree_desc a b =
    let sa = topo.Sensor.Topology.subtree_size.(a) and sb = topo.Sensor.Topology.subtree_size.(b) in
    if sa <> sb then Int.compare sb sa else Int.compare a b
  in
  let ranked =
    Prospector.Plan.participants topo initial
    |> List.filter (fun i -> i <> topo.Sensor.Topology.root)
    |> List.sort by_subtree_desc
  in
  if List.length ranked < victims then
    fail "%s: the initial plan has only %d non-root participants" name (List.length ranked);
  let victim =
    Array.init victims (fun i -> match List.nth_opt ranked (i mod Int.max 1 (List.length ranked)) with
      | Some v -> v
      | None -> topo.Sensor.Topology.root)
  in
  let probe =
    Prospector.Plan.make topo
      (Array.mapi
         (fun i size -> if i = topo.Sensor.Topology.root then 0 else Int.min size k)
         topo.Sensor.Topology.subtree_size)
  in
  let erng = Rng.create (sub_seed ctx 7) in
  let epochs = Array.init (victims * slot) (fun _ -> make_epoch erng it.field ~k) in
  { it; initial; victim; probe; epochs }

(* Everything a campaign decides, for the determinism check. *)
type step = { tag : string; dark : int list; returned : int list; mj : float }

let step_equal a b =
  String.equal a.tag b.tag && a.dark = b.dark && a.returned = b.returned && Float.equal a.mj b.mj

type campaign = {
  steps : step list;
  acc : float;
  collect_mj : float;
  recovery_mj : float;
  repairs : int;
  refusals : int;
  detection : float list;
  changed : float list;
  delta_mj : float list;
  floors : float list;
}

type extra = {
  c : campaign option;
  repair_s : float;  (* summed surgery time reported by the repairs *)
  repaired_observe_s : float;  (* wall time of the observe calls that repaired *)
  sim : simnet_tally;
}

let measure ctx ~fresh ~spans ~seconds =
  let op_s = ref [] and repair_s_by_epoch = ref [] in
  let first = ref None in
  let repair_s = ref 0. and repaired_observe_s = ref 0. in
  let sim = simnet_tally () in
  let refusals_total = ref 0 in
  let budget = ref 0. in
  repeat_for ~seconds (fun run ->
      let env = fresh () in
      let it = env.it in
      let n = it.topo.Sensor.Topology.n in
      budget := it.budget;
      let ctrl =
        Prospector.Repair.create ~confirm_after:2 ~clear_after:2 ~delta:1e-4 it.topo it.cost mica
          ~initial:env.initial ~k:it.k ~budget:it.budget ()
      in
      let steps = ref [] and acc = ref 0. and collect_mj = ref 0. in
      let detection = ref [] and changed = ref [] and delta_mj = ref [] and floors = ref [] in
      Array.iteri
        (fun e (ep : epoch) ->
          let s = e / slot and at = e mod slot in
          let base = Simnet.Fault.bernoulli ~n ~drop in
          let fault =
            if at >= down_from && at < down_until then
              Simnet.Fault.with_crashes base [ (env.victim.(s), 0., infinity) ]
            else base
          in
          let installed = Prospector.Repair.plan ctrl in
          let collect plan salt =
            Spans.span spans Obs.Trace.Epoch "simnet.collect" (fun () ->
                timed (fun () ->
                    Prospector.Simnet_exec.collect it.topo mica
                      ~fault:(fault, fault_rng ctx ~salt ~epoch:e)
                      plan ~k:it.k ~readings:ep.readings))
          in
          let t0 = now () in
          let (wall, r), (_, sweep), (obs_s, outcome) =
            Spans.op spans Obs.Trace.Repair (name ^ ".epoch") (fun () ->
                let r = collect installed 8 in
                let sweep = collect env.probe 9 in
                let dark =
                  List.sort_uniq Int.compare
                    ((snd r).Prospector.Simnet_exec.dark @ (snd sweep).Prospector.Simnet_exec.dark)
                in
                let o =
                  Spans.span spans Obs.Trace.Repair "repair.observe" (fun () ->
                      timed (fun () -> Prospector.Repair.observe ctrl it.samples ~dark))
                in
                (r, sweep, o))
          in
          op_s := (e, now () -. t0) :: !op_s;
          check_energy_ledger name r;
          check_energy_ledger name sweep;
          if run = 0 then tally_collect sim ~wall r;
          acc := !acc +. accuracy ~k:it.k ep r.Prospector.Simnet_exec.returned;
          collect_mj := !collect_mj +. r.Prospector.Simnet_exec.total_mj;
          let tag =
            match outcome with
            | Prospector.Repair.Unnecessary -> "unnecessary"
            | Prospector.Repair.Repaired rp ->
                repair_s_by_epoch := (e, obs_s) :: !repair_s_by_epoch;
                repair_s := !repair_s +. rp.Prospector.Repair.repair_s;
                repaired_observe_s := !repaired_observe_s +. obs_s;
                if at >= down_from && at < down_until
                   && not (List.exists (fun (s', _) -> s' = s) !detection)
                then detection := (s, float_of_int (at - down_from)) :: !detection;
                changed := float_of_int (List.length rp.Prospector.Repair.changed) :: !changed;
                delta_mj := rp.Prospector.Repair.delta_install_mj :: !delta_mj;
                floors :=
                  rp.Prospector.Repair.guarantee.Prospector.Guarantee.certified_lower :: !floors;
                "repaired"
            | Prospector.Repair.Refused _ -> "refused"
          in
          steps :=
            {
              tag;
              dark = r.Prospector.Simnet_exec.dark;
              returned = List.map fst r.Prospector.Simnet_exec.returned;
              mj = r.Prospector.Simnet_exec.total_mj;
            }
            :: !steps)
        env.epochs;
      let c =
        {
          steps = List.rev !steps;
          acc = !acc /. float_of_int (Array.length env.epochs);
          collect_mj = !collect_mj;
          recovery_mj = Prospector.Repair.repair_energy_mj ctrl;
          repairs = Prospector.Repair.repairs ctrl;
          refusals = Prospector.Repair.refusals ctrl;
          detection = List.map snd !detection;
          changed = !changed;
          delta_mj = !delta_mj;
          floors = !floors;
        }
      in
      refusals_total := !refusals_total + c.refusals;
      match !first with
      | None -> first := Some c
      | Some c0 ->
          if not (List.equal step_equal c.steps c0.steps) || not (Float.equal c.recovery_mj c0.recovery_mj) then
            fail "%s: campaign %d differs from the first one" name run);
  (* per repairing epoch, its best observe time over the campaigns *)
  let repair_ms = Array.map (fun s -> 1000. *. s) (best_by_key !repair_s_by_epoch) in
  let c = !first in
  let epochs = victims * slot in
  let acc, energy =
    match c with
    | Some c -> (c.acc, (c.collect_mj +. c.recovery_mj) /. (float_of_int epochs *. !budget))
    | None -> (0., 0.)
  in
  if Array.length repair_ms = 0 then fail "%s: no repair landed" name;
  {
    e2e =
      [
        ops_per_s ~count:epochs !op_s;
        latency_metric repair_ms;
        metric ~samples:epochs ~exact:true "accuracy" "frac" acc;
        metric ~samples:epochs ~exact:true "energy_budget_frac" "frac" energy;
      ];
    op_s = !op_s;
    attempted = List.length !op_s;
    failed = !refusals_total;
    extra = { c; repair_s = !repair_s; repaired_observe_s = !repaired_observe_s; sim };
  }

let layers ~untraced:_ ~traced _spans =
  let x = traced.extra in
  let mean l = Stats.mean (Array.of_list l) in
  let of_c f = match x.c with Some c -> f c | None -> 0. in
  [
    metric ~exact:true "repair.repairs" "count" (of_c (fun c -> float_of_int c.repairs));
    metric ~exact:true "repair.refusals" "count" (of_c (fun c -> float_of_int c.refusals));
    metric ~exact:true "repair.detection_epochs" "count" (of_c (fun c -> mean c.detection));
    metric ~exact:true "repair.changed_nodes_mean" "count" (of_c (fun c -> mean c.changed));
    metric ~exact:true "repair.delta_install_mj_mean" "mJ" (of_c (fun c -> mean c.delta_mj));
    metric ~exact:true "repair.degraded_floor_mean" "frac" (of_c (fun c -> mean c.floors));
    metric "repair.surgery_frac" "frac"
      (if x.repaired_observe_s > 0. then x.repair_s /. x.repaired_observe_s else 0.);
  ]
  @ simnet_layers x.sim
