(* Chaos campaign for the self-healing layer (Repair): CHURN_SEEDS seeds
   (default 100, shifted by CHURN_SEED_OFFSET so CI can rotate the seed
   window) x three churn schedules:

   - permanent-crash: a participating node dies mid-campaign and never
     comes back;
   - crash-restart: the same, but the node recovers a few epochs later,
     so the controller must also detect the restoration and hand the
     recovered capacity back to the planner;
   - burst-bernoulli-crash: the crash rides on top of recoverable frame
     loss (Bernoulli drops opening burst windows), so detection has to
     see through ARQ noise.

   Each trial drives a Repair controller one epoch at a time: the
   installed plan is executed on the simulated network under that
   epoch's fault model, a full-coverage probe sweep supplies liveness
   evidence for subtrees the repaired plan no longer routes through,
   and the merged dark set feeds Repair.observe.  The recovery
   invariants asserted per trial:

   - no hang: every epoch's simulation terminates (the engine's event
     cap would raise otherwise);
   - repaired plans certified: every installed repair has LP provenance
     (never the greedy fallback) and a validated Guarantee.t that
     round-trips through JSON;
   - honest degraded floors: the final installed bound is checked
     against a fresh holdout, with the holdout's own Hoeffding slack,
     exactly like the PR-7 guarantee sweep;
   - energy-to-recover bounded: each repair's delta install covers at
     most the union of old and new participants, and the campaign total
     stays under one full install per repair;
   - determinism: the entire campaign, re-run from the same seed, makes
     bit-identical decisions (plans, bounds, dark sets, energies).

   When CHURN_SUMMARY is set the campaign writes a JSON artifact with
   per-schedule tallies for CI. *)

let mica = Sensor.Mica2.default

let random_tree rng n =
  let parent = Array.init n (fun i -> if i = 0 then -1 else Rng.int rng i) in
  Sensor.Topology.of_parents ~root:0 parent

let env_int name default =
  match Sys.getenv_opt name with
  | Some s -> ( match int_of_string_opt s with Some v -> v | None -> default)
  | None -> default

let n_seeds = env_int "CHURN_SEEDS" 100
let seed_offset = env_int "CHURN_SEED_OFFSET" 0

(* Campaign shape: the victim crashes at [down_epoch]; in the restart
   schedule it recovers at [up_epoch].  With confirm_after = 2 the crash
   is confirmed (and repaired) at down_epoch + 1, leaving the restart
   schedule enough post-recovery epochs to clear and re-repair. *)
let epochs = 10
let down_epoch = 2
let up_epoch = 6
let confirm_after = 2
let clear_after = 2

(* Degraded-bound failure budget per repair.  1e-4 keeps the certified
   floors informative on an 80-sample certification slice while the
   union failure probability over the whole campaign (<= ~1200 repairs)
   stays ~0.1 in the worst case the bounds allow — and far lower for
   the concentrated accuracy distributions actually produced. *)
let repair_delta = 1e-4
let window = 160

let holdout_epochs = 300
let holdout_delta = 1e-9

let holdout_slack =
  Prospector.Guarantee.hoeffding_slack ~m:holdout_epochs ~delta:holdout_delta

type schedule = Permanent | Restart | Burst_bernoulli

let schedules =
  [
    ("permanent-crash", Permanent);
    ("crash-restart", Restart);
    ("burst-bernoulli-crash", Burst_bernoulli);
  ]

(* The fault model one epoch of the campaign runs under.  Simnet clocks
   restart at 0 on every collection, so a multi-epoch crash schedule is
   realized per epoch: the victim is simply unreachable for the whole
   epoch while down. *)
let epoch_fault schedule ~n ~victim ~epoch =
  let base =
    match schedule with
    | Permanent | Restart -> Simnet.Fault.none ~n
    | Burst_bernoulli ->
        Simnet.Fault.with_burst
          (Simnet.Fault.bernoulli ~n ~drop:0.03)
          ~mean_length:0.02
  in
  let down =
    match schedule with
    | Permanent | Burst_bernoulli -> epoch >= down_epoch
    | Restart -> epoch >= down_epoch && epoch < up_epoch
  in
  if down then Simnet.Fault.with_crashes base [ (victim, 0., infinity) ]
  else base

let full_plan topo ~k =
  Prospector.Plan.make topo
    (Array.mapi
       (fun i size -> if i = topo.Sensor.Topology.root then 0 else Int.min size k)
       topo.Sensor.Topology.subtree_size)

(* The deepest-impact victim: the non-root participant with the largest
   subtree (earliest id on ties), so surgery actually has coverage to
   reassign.  The budget doubles until the initial plan has one. *)
let pick_victim topo plan =
  List.fold_left
    (fun best i ->
      if i = topo.Sensor.Topology.root then best
      else
        match best with
        | None -> Some i
        | Some b ->
            if
              topo.Sensor.Topology.subtree_size.(i)
              > topo.Sensor.Topology.subtree_size.(b)
            then Some i
            else best)
    None
    (Prospector.Plan.participants topo plan)

let check_guarantee ctx g =
  (match Prospector.Guarantee.validate g with
  | Ok () -> ()
  | Error reason -> Alcotest.fail (ctx ^ ": invalid guarantee: " ^ reason));
  match Prospector.Guarantee.of_json (Prospector.Guarantee.to_json g) with
  | Some g' when Prospector.Guarantee.equal g g' -> ()
  | Some _ -> Alcotest.fail (ctx ^ ": guarantee JSON round-trip changed")
  | None -> Alcotest.fail (ctx ^ ": guarantee JSON did not parse back")

(* Everything a campaign decides, minus wall-clock measurements — the
   determinism check compares two runs of this record. *)
type campaign = {
  final_bandwidth : int list;
  final_dead : int list;
  final_guarantee : Prospector.Guarantee.t option;
  repairs : int;
  refusals : int;
  recovery_mj : float;
  first_repair_epoch : int option;
  per_epoch_dark : int list list;
  install_old_plus_new : float;  (** bound for the recovery energy *)
  probe_mj : float;
}

let run_campaign ~schedule ~seed ~topo ~cost ~k ~budget ~train ~field ~victim
    ~initial =
  let n = topo.Sensor.Topology.n in
  let ctrl =
    Prospector.Repair.create ~confirm_after ~clear_after ~delta:repair_delta
      topo cost mica ~initial ~k ~budget ()
  in
  let probe = full_plan topo ~k in
  let epoch_rng = Rng.create ((seed * 97) + 0x29a) in
  let readings_per_epoch =
    Array.init epochs (fun _ -> field.Sampling.Field.draw epoch_rng)
  in
  let first_repair = ref None in
  let dark_log = ref [] in
  let probe_mj = ref 0. in
  let install_bound = ref 0. in
  for e = 0 to epochs - 1 do
    let fault = epoch_fault schedule ~n ~victim ~epoch:e in
    let installed = Prospector.Repair.plan ctrl in
    let run =
      Prospector.Simnet_exec.collect topo mica
        ~fault:(fault, Rng.create ((seed * 31) + (2 * e)))
        installed ~k ~readings:readings_per_epoch.(e)
    in
    (* The executor's give-up bookkeeping must agree with the engine's
       counter: one frame per directed link per collection. *)
    Alcotest.(check int)
      "give-up events match the engine counter"
      run.Prospector.Simnet_exec.gave_up_frames
      (List.length run.Prospector.Simnet_exec.give_ups);
    (* A repaired plan no longer routes through confirmed-dead subtrees,
       so the data collection alone cannot witness a restoration.  The
       probe sweep covers every node each epoch (a periodic liveness
       scan; its energy is accounted separately below). *)
    let sweep =
      Prospector.Simnet_exec.collect topo mica
        ~fault:(fault, Rng.create ((seed * 31) + (2 * e) + 1))
        probe ~k ~readings:readings_per_epoch.(e)
    in
    probe_mj := !probe_mj +. sweep.Prospector.Simnet_exec.total_mj;
    let dark =
      List.sort_uniq Int.compare
        (run.Prospector.Simnet_exec.dark @ sweep.Prospector.Simnet_exec.dark)
    in
    dark_log := dark :: !dark_log;
    (match Prospector.Repair.observe ctrl train ~dark with
    | Prospector.Repair.Unnecessary -> ()
    | Prospector.Repair.Repaired r ->
        if !first_repair = None then first_repair := Some e;
        check_guarantee "installed repair" r.Prospector.Repair.guarantee;
        Alcotest.(check bool)
          "repairs carry LP provenance" true
          (r.Prospector.Repair.provenance <> Prospector.Robust_plan.Fell_back_greedy);
        let bound =
          Prospector.Plan.install_mj topo mica installed
          +. Prospector.Plan.install_mj topo mica r.Prospector.Repair.plan
        in
        install_bound := !install_bound +. bound;
        Alcotest.(check bool)
          "delta install covers only old+new participants" true
          (r.Prospector.Repair.delta_install_mj <= bound +. 1e-9);
        (* The changed list is exactly the bandwidth diff. *)
        List.iter
          (fun i ->
            Alcotest.(check bool)
              "changed node really changed" true
              (Prospector.Plan.bandwidth installed i
              <> Prospector.Plan.bandwidth r.Prospector.Repair.plan i))
          r.Prospector.Repair.changed;
        for i = 0 to n - 1 do
          if not (List.mem i r.Prospector.Repair.changed) then
            Alcotest.(check int)
              "unchanged node untouched"
              (Prospector.Plan.bandwidth installed i)
              (Prospector.Plan.bandwidth r.Prospector.Repair.plan i)
        done
    | Prospector.Repair.Refused { attempt; _ } ->
        Option.iter
          (fun a -> check_guarantee "refused attempt" a.Prospector.Repair.guarantee)
          attempt)
  done;
  {
    final_bandwidth =
      List.init n (Prospector.Plan.bandwidth (Prospector.Repair.plan ctrl));
    final_dead = Prospector.Repair.dead ctrl;
    final_guarantee = Prospector.Repair.guarantee ctrl;
    repairs = Prospector.Repair.repairs ctrl;
    refusals = Prospector.Repair.refusals ctrl;
    recovery_mj = Prospector.Repair.repair_energy_mj ctrl;
    first_repair_epoch = !first_repair;
    per_epoch_dark = List.rev !dark_log;
    install_old_plus_new = !install_bound;
    probe_mj = !probe_mj;
  }

type sched_stats = {
  s_name : string;
  mutable trials : int;
  mutable repairs_total : int;
  mutable refusals_total : int;
  mutable violations : int;
  mutable informative : int;
  mutable sum_detect : float;
  mutable detect_n : int;
  mutable sum_recovery_mj : float;
  mutable sum_full_install_mj : float;
}

let run_trial stats ~sched_ix ~schedule seed =
  let rng = Rng.create ((seed * 8) + sched_ix + 0x8c1) in
  let n = 10 + Rng.int rng 9 in
  let k = 1 + Rng.int rng 3 in
  let topo = random_tree rng n in
  let cost = Sensor.Cost.of_mica2 topo mica in
  let field =
    Sampling.Field.random_gaussian rng ~n ~mean_lo:18. ~mean_hi:26. ~sigma_lo:1.
      ~sigma_hi:3.
  in
  let train = Sampling.Sample_set.draw rng field ~k ~count:window in
  (* Grow the budget until the initial plan has a non-root participant to
     kill; comfortable budgets also keep the degraded floors informative. *)
  let rec initial_plan budget tries =
    let r = Prospector.Lp_lf.plan topo cost train ~budget ~k in
    match pick_victim topo r.Prospector.Lp_lf.plan with
    | Some v -> (r.Prospector.Lp_lf.plan, v, budget)
    | None ->
        if tries >= 6 then
          Alcotest.fail "no participating victim even at a huge budget"
        else initial_plan (budget *. 2.) (tries + 1)
  in
  let initial, victim, budget = initial_plan (15. +. Rng.float rng 15.) 0 in
  let run () =
    run_campaign ~schedule ~seed ~topo ~cost ~k ~budget ~train ~field ~victim
      ~initial
  in
  let c = run () in
  (* Bit-determinism: the same seed re-runs to the same campaign. *)
  let c' = run () in
  Alcotest.(check (list int)) "deterministic final plan" c.final_bandwidth c'.final_bandwidth;
  Alcotest.(check int) "deterministic repair count" c.repairs c'.repairs;
  Alcotest.(check int) "deterministic refusals" c.refusals c'.refusals;
  Alcotest.(check (list (list int))) "deterministic dark sets" c.per_epoch_dark c'.per_epoch_dark;
  Alcotest.(check (float 0.)) "deterministic recovery energy" c.recovery_mj c'.recovery_mj;
  Alcotest.(check bool)
    "deterministic degraded bound" true
    (match (c.final_guarantee, c'.final_guarantee) with
    | Some a, Some b -> Prospector.Guarantee.equal a b
    | None, None -> true
    | _ -> false);
  (* Recovery invariants. *)
  Alcotest.(check bool) "crash repaired at least once" true (c.repairs >= 1);
  (match schedule with
  | Restart ->
      Alcotest.(check bool)
        "restoration repaired too" true (c.repairs >= 2);
      Alcotest.(check (list int)) "restored: nobody confirmed dead" [] c.final_dead
  | Permanent | Burst_bernoulli ->
      Alcotest.(check bool)
        "victim stays confirmed dead" true
        (List.mem victim c.final_dead);
      Alcotest.(check int)
        "victim excluded from the repaired plan" 0
        (List.nth c.final_bandwidth victim));
  Alcotest.(check bool)
    "recovery energy bounded" true
    (c.recovery_mj <= c.install_old_plus_new +. 1e-9);
  (* Detection latency: the crash at down_epoch is dark from that epoch
     on, so hysteresis confirms (and surgery lands) one epoch later. *)
  (match c.first_repair_epoch with
  | None -> Alcotest.fail "no repair recorded"
  | Some e ->
      Alcotest.(check bool)
        "detection latency = hysteresis window" true
        (e = down_epoch + confirm_after - 1);
      stats.sum_detect <- stats.sum_detect +. float_of_int (e - down_epoch);
      stats.detect_n <- stats.detect_n + 1);
  (* Honest degraded floor: the installed bound survives a fresh holdout
     (the same discipline as the PR-7 guarantee sweep). *)
  let g =
    match c.final_guarantee with
    | Some g -> g
    | None -> Alcotest.fail "campaign ended without an installed bound"
  in
  let final_plan = Prospector.Plan.make topo (Array.of_list c.final_bandwidth) in
  let hrng = Rng.create ((seed * 13) + sched_ix + 0x77) in
  let acc = ref 0. in
  for _ = 1 to holdout_epochs do
    let readings = field.Sampling.Field.draw hrng in
    let o = Prospector.Exec.collect topo cost final_plan ~k ~readings in
    acc := !acc +. Prospector.Exec.accuracy ~k ~readings o.Prospector.Exec.returned
  done;
  let true_acc = !acc /. float_of_int holdout_epochs in
  if
    not
      (Prospector.Guarantee.holds_against g
         ~observed_accuracy:(true_acc +. holdout_slack))
  then stats.violations <- stats.violations + 1;
  if g.Prospector.Guarantee.certified_lower > 0. then
    stats.informative <- stats.informative + 1;
  stats.trials <- stats.trials + 1;
  stats.repairs_total <- stats.repairs_total + c.repairs;
  stats.refusals_total <- stats.refusals_total + c.refusals;
  stats.sum_recovery_mj <- stats.sum_recovery_mj +. c.recovery_mj;
  stats.sum_full_install_mj <-
    stats.sum_full_install_mj +. Prospector.Plan.install_mj topo mica final_plan

let run_schedule sched_ix (name, schedule) =
  let stats =
    {
      s_name = name;
      trials = 0;
      repairs_total = 0;
      refusals_total = 0;
      violations = 0;
      informative = 0;
      sum_detect = 0.;
      detect_n = 0;
      sum_recovery_mj = 0.;
      sum_full_install_mj = 0.;
    }
  in
  for i = 0 to n_seeds - 1 do
    run_trial stats ~sched_ix ~schedule (seed_offset + i)
  done;
  stats

let summary_json stats =
  let mean total count = if count = 0 then 0. else total /. float_of_int count in
  Obs.Json.Obj
    [
      ("schema", Obs.Json.Str "churn-sweep/1");
      ("seeds", Obs.Json.Num (float_of_int n_seeds));
      ("seed_offset", Obs.Json.Num (float_of_int seed_offset));
      ("epochs", Obs.Json.Num (float_of_int epochs));
      ("repair_delta", Obs.Json.Num repair_delta);
      ( "holdout",
        Obs.Json.Obj
          [
            ("epochs", Obs.Json.Num (float_of_int holdout_epochs));
            ("delta", Obs.Json.Num holdout_delta);
            ("slack", Obs.Json.Num holdout_slack);
          ] );
      ( "schedules",
        Obs.Json.List
          (List.map
             (fun s ->
               Obs.Json.Obj
                 [
                   ("name", Obs.Json.Str s.s_name);
                   ("trials", Obs.Json.Num (float_of_int s.trials));
                   ("repairs", Obs.Json.Num (float_of_int s.repairs_total));
                   ("refusals", Obs.Json.Num (float_of_int s.refusals_total));
                   ("violations", Obs.Json.Num (float_of_int s.violations));
                   ("informative", Obs.Json.Num (float_of_int s.informative));
                   ( "mean_detection_epochs",
                     Obs.Json.Num (mean s.sum_detect s.detect_n) );
                   ( "mean_recovery_mj",
                     Obs.Json.Num (mean s.sum_recovery_mj s.trials) );
                   ( "mean_full_install_mj",
                     Obs.Json.Num (mean s.sum_full_install_mj s.trials) );
                 ])
             stats) );
    ]

let write_summary stats =
  match Sys.getenv_opt "CHURN_SUMMARY" with
  | None | Some "" -> ()
  | Some path ->
      let oc = open_out path in
      output_string oc (Obs.Json.to_string_pretty (summary_json stats));
      close_out oc

let test_campaign () =
  let stats = List.mapi run_schedule schedules in
  (* Write the artifact before asserting so a red run still uploads its
     evidence. *)
  write_summary stats;
  List.iter
    (fun s ->
      Alcotest.(check int) (s.s_name ^ ": full seed count") n_seeds s.trials;
      Alcotest.(check int)
        (s.s_name ^ ": zero degraded-floor violations")
        0 s.violations)
    stats;
  (* Vacuity guard: a floor of 0 can never be violated, so a meaningful
     fraction of the degraded bounds must be informative. *)
  let informative = List.fold_left (fun a s -> a + s.informative) 0 stats in
  let trials = List.fold_left (fun a s -> a + s.trials) 0 stats in
  Alcotest.(check bool)
    "enough informative degraded floors" true
    (float_of_int informative >= 0.2 *. float_of_int trials)

(* ---------- unit tests around the campaign ---------- *)

let unit_setup seed =
  let rng = Rng.create seed in
  let n = 12 in
  let topo = random_tree rng n in
  let cost = Sensor.Cost.of_mica2 topo mica in
  let field =
    Sampling.Field.random_gaussian rng ~n ~mean_lo:18. ~mean_hi:26. ~sigma_lo:1.
      ~sigma_hi:3.
  in
  let train = Sampling.Sample_set.draw rng field ~k:2 ~count:window in
  (topo, cost, train)

let test_health_hysteresis () =
  let h = Prospector.Repair.Health.create ~confirm_after:2 ~clear_after:2 ~n:4 () in
  (* One dark epoch is not a confirmation... *)
  Prospector.Repair.Health.observe h ~dark:[ 2 ];
  Alcotest.(check (list int)) "transient not confirmed" []
    (Prospector.Repair.Health.confirmed_dead h);
  (* ...two consecutive ones are. *)
  Prospector.Repair.Health.observe h ~dark:[ 2 ];
  Alcotest.(check (list int)) "confirmed after streak" [ 2 ]
    (Prospector.Repair.Health.confirmed_dead h);
  (* A dark epoch elsewhere resets nothing for node 2... *)
  Prospector.Repair.Health.observe h ~dark:[ 2; 3 ];
  Alcotest.(check bool) "still confirmed" true
    (Prospector.Repair.Health.is_confirmed h 2);
  (* ...and clearing takes clear_after consecutive alive epochs. *)
  Prospector.Repair.Health.observe h ~dark:[];
  Alcotest.(check bool) "one alive epoch does not clear" true
    (Prospector.Repair.Health.is_confirmed h 2);
  Prospector.Repair.Health.observe h ~dark:[];
  Alcotest.(check (list int)) "cleared after streak" []
    (Prospector.Repair.Health.confirmed_dead h);
  Alcotest.(check int) "epochs counted" 5 (Prospector.Repair.Health.epochs h)

let test_health_unprobed_freezes () =
  let h = Prospector.Repair.Health.create ~confirm_after:2 ~clear_after:1 ~n:3 () in
  Prospector.Repair.Health.observe h ~dark:[ 1 ];
  Prospector.Repair.Health.observe h ~dark:[ 1 ];
  Alcotest.(check bool) "confirmed" true (Prospector.Repair.Health.is_confirmed h 1);
  (* An epoch that never probed node 1 must not read as recovery even
     with clear_after = 1. *)
  Prospector.Repair.Health.observe h ~probed:[ 0; 2 ] ~dark:[];
  Alcotest.(check bool) "unprobed stays confirmed" true
    (Prospector.Repair.Health.is_confirmed h 1);
  (* A probed alive epoch clears it. *)
  Prospector.Repair.Health.observe h ~probed:[ 0; 1; 2 ] ~dark:[];
  Alcotest.(check bool) "probed alive clears" false
    (Prospector.Repair.Health.is_confirmed h 1)

let test_surgery_unnecessary_and_root () =
  let topo, cost, train = unit_setup 41 in
  let r = Prospector.Lp_lf.plan topo cost train ~budget:30. ~k:2 in
  let current = r.Prospector.Lp_lf.plan in
  (* No deaths: nothing to do. *)
  (match
     Prospector.Repair.surgery topo cost mica train ~current ~dead:[] ~k:2
       ~budget:30.
   with
  | Prospector.Repair.Unnecessary -> ()
  | _ -> Alcotest.fail "empty dead set must be Unnecessary");
  (* A dead node the plan never used: nothing to do either. *)
  (match
     List.find_opt
       (fun i ->
         i <> topo.Sensor.Topology.root
         && Prospector.Plan.bandwidth current i = 0
         && Sensor.Topology.descendants topo i
            |> List.for_all (fun d -> Prospector.Plan.bandwidth current d = 0))
       (List.init topo.Sensor.Topology.n Fun.id)
   with
  | None -> ()
  | Some spectator -> (
      match
        Prospector.Repair.surgery topo cost mica train ~current
          ~dead:[ spectator ] ~k:2 ~budget:30.
      with
      | Prospector.Repair.Unnecessary -> ()
      | _ -> Alcotest.fail "non-participating death must be Unnecessary"));
  Alcotest.check_raises "root cannot be dead"
    (Invalid_argument "Repair.surgery: the root cannot be dead") (fun () ->
      ignore
        (Prospector.Repair.surgery topo cost mica train ~current
           ~dead:[ topo.Sensor.Topology.root ] ~k:2 ~budget:30.))

let test_surgery_repairs_and_restores () =
  let topo, cost, train = unit_setup 42 in
  let r = Prospector.Lp_lf.plan topo cost train ~budget:30. ~k:2 in
  let current = r.Prospector.Lp_lf.plan in
  let victim =
    match pick_victim topo current with
    | Some v -> v
    | None -> Alcotest.fail "no victim"
  in
  let rep =
    match
      Prospector.Repair.surgery ?warm_start:r.Prospector.Lp_lf.basis topo cost
        mica train ~current ~dead:[ victim ] ~k:2 ~budget:30.
    with
    | Prospector.Repair.Repaired rep -> rep
    | Prospector.Repair.Unnecessary -> Alcotest.fail "victim participates"
    | Prospector.Repair.Refused _ -> Alcotest.fail "unexpected refusal"
  in
  check_guarantee "surgery repair" rep.Prospector.Repair.guarantee;
  List.iter
    (fun d ->
      Alcotest.(check int)
        "dead subtree carries no bandwidth" 0
        (Prospector.Plan.bandwidth rep.Prospector.Repair.plan d))
    (Sensor.Topology.descendants topo victim);
  Alcotest.(check bool)
    "dropped lists the victim's participating subtree" true
    (List.mem victim rep.Prospector.Repair.dropped);
  (* Restoration: handing the node back re-triggers surgery even though
     nothing new died. *)
  (match
     Prospector.Repair.surgery topo cost mica train
       ~assumed_dead:[ victim ] ~current:rep.Prospector.Repair.plan ~dead:[]
       ~k:2 ~budget:30.
   with
  | Prospector.Repair.Repaired r2 ->
      check_guarantee "restoration repair" r2.Prospector.Repair.guarantee
  | Prospector.Repair.Unnecessary -> Alcotest.fail "restoration must re-plan"
  | Prospector.Repair.Refused _ -> Alcotest.fail "restoration refused");
  (* Unchanged dead set: no re-surgery. *)
  match
    Prospector.Repair.surgery topo cost mica train ~assumed_dead:[ victim ]
      ~current:rep.Prospector.Repair.plan ~dead:[ victim ] ~k:2 ~budget:30.
  with
  | Prospector.Repair.Unnecessary -> ()
  | _ -> Alcotest.fail "unchanged dead set must be Unnecessary"

(* Pinned repair energies on the seed-20060403 churn instance: n = 40,
   k = 8, a 160-sample window, budget 0.7x the minimum-bandwidth
   collection cost.  Each of the eight largest participating subtrees is
   killed alone and repaired by warm-started surgery; then one
   crash-restart campaign runs the controller end to end.  The energies
   are model-derived and deterministic, so they are held to 1e-9: a drift
   is a behaviour change in surgery, install deltas or detection. *)
let test_pinned_repair_energies () =
  let seed = 20060403 in
  let n = 40 and k = 8 in
  let rng = Rng.create (seed * 104729) in
  let layout = Sensor.Placement.uniform rng ~n ~width:200. ~height:200. () in
  let range = Sensor.Topology.min_connecting_range layout *. 1.25 in
  let topo = Sensor.Topology.build layout ~range in
  let cost = Sensor.Cost.of_mica2 topo mica in
  let field =
    Sampling.Field.random_gaussian rng ~n ~mean_lo:20. ~mean_hi:30. ~sigma_lo:1.
      ~sigma_hi:4.
  in
  let samples = Sampling.Sample_set.draw rng field ~k ~count:160 in
  let budget =
    0.7
    *. Prospector.Plan.expected_collection_mj topo cost
         (Prospector.Proof_exec.min_bandwidth_plan topo)
  in
  let first = Prospector.Lp_lf.plan topo cost samples ~budget ~k in
  let initial = first.Prospector.Lp_lf.plan in
  let root = topo.Sensor.Topology.root in
  let by_subtree_desc a b =
    let sa = topo.Sensor.Topology.subtree_size.(a)
    and sb = topo.Sensor.Topology.subtree_size.(b) in
    if sa <> sb then Int.compare sb sa else Int.compare a b
  in
  let victims =
    Prospector.Plan.participants topo initial
    |> List.filter (fun i -> i <> root)
    |> List.sort by_subtree_desc
    |> List.filteri (fun i _ -> i < 8)
  in
  Alcotest.(check (list int))
    "victim order" [ 20; 23; 37; 16; 30; 13; 17; 21 ] victims;
  List.iter2
    (fun v expected ->
      match
        Prospector.Repair.surgery ?warm_start:first.Prospector.Lp_lf.basis
          ~delta:1e-4 topo cost mica samples ~current:initial ~dead:[ v ] ~k
          ~budget
      with
      | Prospector.Repair.Repaired r ->
          Alcotest.(check (float 1e-9))
            (Printf.sprintf "victim %d delta install mJ" v)
            expected r.Prospector.Repair.delta_install_mj
      | _ -> Alcotest.failf "victim %d: surgery did not repair" v)
    victims
    [ 6.2325; 7.27125; 4.155; 4.155; 4.155; 8.31; 6.2325; 6.2325 ];
  (* Crash-restart campaign: the largest victim is down for epochs 2-5,
     with a full-coverage probe sweep beside the installed plan. *)
  let victim = List.hd victims in
  let ctrl =
    Prospector.Repair.create ~confirm_after:2 ~clear_after:2 ~delta:1e-4 topo
      cost mica ~initial ~k ~budget ()
  in
  let probe =
    Prospector.Plan.make topo
      (Array.mapi
         (fun i size -> if i = root then 0 else Int.min size k)
         topo.Sensor.Topology.subtree_size)
  in
  let erng = Rng.create ((seed * 131) + 17) in
  for e = 0 to 9 do
    let base = Simnet.Fault.none ~n in
    let fault =
      if e >= 2 && e < 6 then
        Simnet.Fault.with_crashes base [ (victim, 0., infinity) ]
      else base
    in
    let readings = field.Sampling.Field.draw erng in
    let collect plan salt =
      Prospector.Simnet_exec.collect topo mica
        ~fault:(fault, Rng.create ((seed * 37) + (2 * e) + salt))
        plan ~k ~readings
    in
    let run = collect (Prospector.Repair.plan ctrl) 0 in
    let sweep = collect probe 1 in
    let dark =
      List.sort_uniq Int.compare
        (run.Prospector.Simnet_exec.dark @ sweep.Prospector.Simnet_exec.dark)
    in
    ignore (Prospector.Repair.observe ctrl samples ~dark)
  done;
  Alcotest.(check int) "campaign repairs" 2 (Prospector.Repair.repairs ctrl);
  Alcotest.(check (float 1e-9))
    "campaign recovery mJ" 13.50375
    (Prospector.Repair.repair_energy_mj ctrl)

let test_floor_refusal () =
  let topo, cost, train = unit_setup 43 in
  let r = Prospector.Lp_lf.plan topo cost train ~budget:30. ~k:2 in
  let current = r.Prospector.Lp_lf.plan in
  let victim =
    match pick_victim topo current with
    | Some v -> v
    | None -> Alcotest.fail "no victim"
  in
  (* An unattainable floor: every repair must be refused, with the
     attempt still carrying its honest (too-low) bound. *)
  match
    Prospector.Repair.surgery ~min_floor:1.1 topo cost mica train ~current
      ~dead:[ victim ] ~k:2 ~budget:30.
  with
  | Prospector.Repair.Refused
      {
        reason = Prospector.Repair.Floor_below_threshold { floor; threshold };
        attempt = Some a;
      } ->
      Alcotest.(check (float 0.)) "threshold echoed" 1.1 threshold;
      Alcotest.(check bool) "floor below" true (floor < threshold);
      check_guarantee "refused attempt" a.Prospector.Repair.guarantee
  | _ -> Alcotest.fail "expected a floor refusal with an attempt"

let test_controller_refusal_keeps_plan () =
  let topo, cost, train = unit_setup 44 in
  let r = Prospector.Lp_lf.plan topo cost train ~budget:30. ~k:2 in
  let initial = r.Prospector.Lp_lf.plan in
  let victim =
    match pick_victim topo initial with
    | Some v -> v
    | None -> Alcotest.fail "no victim"
  in
  let ctrl =
    Prospector.Repair.create ~confirm_after:1 ~min_floor:1.1 topo cost mica
      ~initial ~k:2 ~budget:30. ()
  in
  (match
     Prospector.Repair.observe ctrl train
       ~dark:(Sensor.Topology.descendants topo victim)
   with
  | Prospector.Repair.Refused _ -> ()
  | _ -> Alcotest.fail "expected refusal");
  Alcotest.(check bool) "installed plan untouched" true
    (Prospector.Repair.plan ctrl == initial);
  Alcotest.(check int) "refusal counted" 1 (Prospector.Repair.refusals ctrl);
  Alcotest.(check int) "no repair counted" 0 (Prospector.Repair.repairs ctrl)

let test_give_up_timestamps () =
  let topo, _cost, _train = unit_setup 45 in
  let n = topo.Sensor.Topology.n in
  let k = 2 in
  let plan = full_plan topo ~k in
  let victim = 1 + Rng.int (Rng.create 9) (n - 1) in
  let fault =
    Simnet.Fault.with_crashes (Simnet.Fault.none ~n) [ (victim, 0., infinity) ]
  in
  let r =
    Prospector.Simnet_exec.collect topo mica
      ~fault:(fault, Rng.create 7)
      plan ~k
      ~readings:(Array.init n (fun i -> float_of_int i))
  in
  Alcotest.(check bool) "at least one give-up" true
    (r.Prospector.Simnet_exec.give_ups <> []);
  Alcotest.(check int) "events match the engine counter"
    r.Prospector.Simnet_exec.gave_up_frames
    (List.length r.Prospector.Simnet_exec.give_ups);
  List.iter
    (fun (dst, at) ->
      Alcotest.(check int) "every give-up is on the crashed node" victim dst;
      Alcotest.(check bool) "give-up takes the full retry schedule" true
        (at > 0.))
    r.Prospector.Simnet_exec.give_ups;
  (* The dark closure is derivable from the give-up endpoints. *)
  Alcotest.(check (list int)) "dark = closure of the give-up endpoints"
    (List.sort_uniq Int.compare
       (List.concat_map
          (fun (dst, _) -> Sensor.Topology.descendants topo dst)
          r.Prospector.Simnet_exec.give_ups))
    r.Prospector.Simnet_exec.dark

let () =
  Alcotest.run "churn"
    [
      ( "chaos campaign",
        [ Alcotest.test_case "cross-seed churn sweep" `Slow test_campaign ] );
      ( "health",
        [
          Alcotest.test_case "hysteresis" `Quick test_health_hysteresis;
          Alcotest.test_case "unprobed freezes" `Quick
            test_health_unprobed_freezes;
        ] );
      ( "surgery",
        [
          Alcotest.test_case "unnecessary and root guard" `Quick
            test_surgery_unnecessary_and_root;
          Alcotest.test_case "repair and restoration" `Quick
            test_surgery_repairs_and_restores;
          Alcotest.test_case "floor refusal" `Quick test_floor_refusal;
          Alcotest.test_case "pinned repair energies" `Quick
            test_pinned_repair_energies;
          Alcotest.test_case "controller keeps plan on refusal" `Quick
            test_controller_refusal_keeps_plan;
        ] );
      ( "give-ups",
        [
          Alcotest.test_case "timestamps and counter cross-check" `Quick
            test_give_up_timestamps;
        ] );
    ]
