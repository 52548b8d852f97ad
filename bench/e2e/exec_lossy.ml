(* exec-lossy: one plan built in set-up, then message-level collections
   over links that drop frames in bursts, with no planning at all.  A
   fixed cycle of epochs, each pass on a fresh set-up, is repeated for
   the whole run. *)

open Common

let name = "exec-lossy"
let cycle = 2000
let drop = 0.08
let burst_s = 0.05

type env = {
  it : instance;
  plan : Prospector.Plan.t;
  fault : Simnet.Fault.t;
  epochs : epoch array;
}

let cycle_length ctx = if ctx.smoke then 60 else cycle

let setup ctx =
  let n, m, k = if ctx.smoke then (24, 8, 3) else (150, 40, 10) in
  let e = cycle_length ctx in
  let rng = corpus_rng 10 in
  let it = make_instance rng ~n ~m ~k ~budget_factor:1.2 in
  let r = Prospector.Lp_lf.plan it.topo it.cost it.samples ~budget:it.budget ~k in
  if not (certified r.Prospector.Lp_lf.certify) then fail "%s: plan is not certified" name;
  let erng = Rng.create (sub_seed ctx 11) in
  {
    it;
    plan = r.Prospector.Lp_lf.plan;
    fault = Simnet.Fault.with_burst (Simnet.Fault.bernoulli ~n ~drop) ~mean_length:burst_s;
    epochs = Array.init e (fun _ -> make_epoch erng it.field ~k);
  }

type extra = { sim : simnet_tally; analytic_s : float; oracle_s : float }

let same_answer a b =
  List.equal (fun (i, v) (j, w) -> Int.equal i j && Float.equal v w) a b

let measure ctx ~fresh ~spans ~seconds =
  let ne = cycle_length ctx in
  let op_s = ref [] in
  let digest = Array.make ne ([], 0.) in
  let acc = ref 0. and energy = ref 0. in
  let sim = simnet_tally () in
  let analytic_s = ref 0. and oracle_s = ref 0. in
  repeat_for ~seconds (fun pass ->
      let env = fresh () in
      let it = env.it in
      Array.iteri
        (fun e (ep : epoch) ->
          let t0 = now () in
          let wall, r =
            Spans.op spans Obs.Trace.Epoch (name ^ ".epoch") (fun () ->
                Spans.span spans Obs.Trace.Epoch "simnet.collect" (fun () ->
                    timed (fun () ->
                        Prospector.Simnet_exec.collect it.topo mica
                          ~fault:(env.fault, fault_rng ctx ~salt:12 ~epoch:e)
                          env.plan ~k:it.k ~readings:ep.readings)))
          in
          op_s := (e, now () -. t0) :: !op_s;
          let returned = r.Prospector.Simnet_exec.returned in
          let mj = r.Prospector.Simnet_exec.total_mj in
          if pass = 0 then begin
            check_energy_ledger name r;
            tally_collect sim ~wall r;
            acc := !acc +. accuracy ~k:it.k ep returned;
            energy := !energy +. (mj /. it.budget);
            digest.(e) <- (returned, mj);
            (* The two-transport differential oracle: with every loss
               recovered, the simulator answers exactly like the analytic
               executor. *)
            if r.Prospector.Simnet_exec.dark = [] then begin
              let dt, o =
                timed (fun () ->
                    Prospector.Exec.collect it.topo it.cost env.plan ~k:it.k ~readings:ep.readings)
              in
              analytic_s := !analytic_s +. dt;
              oracle_s := !oracle_s +. wall;
              if not (same_answer o.Prospector.Exec.returned returned) then
                fail "%s: epoch %d: simulator and analytic executor disagree" name e
            end
          end
          else begin
            let returned0, mj0 = digest.(e) in
            if not (same_answer returned returned0 && Float.equal mj mj0) then
              fail "%s: epoch %d differs from the first pass" name e
          end)
        env.epochs);
  let per_epoch = best_by_key !op_s in
  let nef = float_of_int ne in
  {
    e2e =
      [
        ops_per_s ~count:ne !op_s;
        latency_metric (Array.map (fun s -> 1000. *. s) per_epoch);
        metric ~samples:ne ~exact:true "accuracy" "frac" (!acc /. nef);
        metric ~samples:ne ~exact:true "energy_budget_frac" "frac" (!energy /. nef);
      ];
    op_s = !op_s;
    attempted = List.length !op_s;
    failed = 0;
    extra = { sim; analytic_s = !analytic_s; oracle_s = !oracle_s };
  }

let layers ~untraced:_ ~traced _spans =
  let x = traced.extra in
  metric "exec.analytic_vs_simnet" "frac"
    (if x.oracle_s > 0. then x.analytic_s /. x.oracle_s else 0.)
  :: simnet_layers x.sim
