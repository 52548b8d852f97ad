(* Command-line front end for the PROSPECTOR library.

   Subcommands:
     topology    -- generate a network and print its spanning tree
     plan        -- build a query plan with a chosen planner and print it
     query       -- plan, then execute on a fresh epoch
     exact       -- run the two-phase exact top-k query
     experiment  -- regenerate one of the paper's tables or figures *)

open Cmdliner

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"Random seed.")

let nodes_arg =
  Arg.(value & opt int 80 & info [ "n"; "nodes" ] ~docv:"N" ~doc:"Network size.")

let k_arg =
  Arg.(value & opt int 10 & info [ "k" ] ~docv:"K" ~doc:"Query size (top k).")

let samples_arg =
  Arg.(
    value & opt int 20
    & info [ "samples" ] ~docv:"N" ~doc:"Number of training samples.")

let budget_arg =
  Arg.(
    value
    & opt float 0.25
    & info [ "budget" ] ~docv:"FRAC"
        ~doc:"Energy budget as a fraction of the NAIVE-k cost.")

let planner_arg =
  let planners =
    [ ("greedy", `Greedy); ("lp-lf", `Lp_no_lf); ("lp+lf", `Lp_lf) ]
  in
  Arg.(
    value
    & opt (enum planners) `Lp_lf
    & info [ "planner" ] ~docv:"PLANNER"
        ~doc:"Planner: $(b,greedy), $(b,lp-lf) or $(b,lp+lf).")

type env = {
  topo : Sensor.Topology.t;
  cost : Sensor.Cost.t;
  mica : Sensor.Mica2.t;
  field : Sampling.Field.t;
  samples : Sampling.Sample_set.t;
  rng : Rng.t;
  budget_mj : float;
}

let build_env seed n k n_samples budget_fraction =
  let rng = Rng.create seed in
  let layout = Sensor.Placement.uniform rng ~n ~width:200. ~height:200. () in
  let range = Sensor.Topology.min_connecting_range layout *. 1.1 in
  let topo = Sensor.Topology.build layout ~range in
  let mica = Sensor.Mica2.default in
  let cost = Sensor.Cost.of_mica2 topo mica in
  let field =
    Sampling.Field.random_gaussian rng ~n ~mean_lo:20. ~mean_hi:26.
      ~sigma_lo:1.5 ~sigma_hi:5.
  in
  let samples = Sampling.Sample_set.draw rng field ~k ~count:n_samples in
  let naive =
    (Prospector.Naive.naive_k topo cost ~k
       ~readings:(field.Sampling.Field.draw rng))
      .Prospector.Naive.collection_mj
  in
  { topo; cost; mica; field; samples; rng; budget_mj = budget_fraction *. naive }

let make_plan env planner k =
  match planner with
  | `Greedy ->
      Prospector.Greedy.plan env.topo env.cost env.samples ~budget:env.budget_mj
  | `Lp_no_lf ->
      (Prospector.Lp_no_lf.plan env.topo env.cost env.samples
         ~budget:env.budget_mj)
        .Prospector.Lp_no_lf.plan
  | `Lp_lf ->
      (Prospector.Lp_lf.plan env.topo env.cost env.samples ~budget:env.budget_mj
         ~k)
        .Prospector.Lp_lf.plan

let topology_cmd =
  let run seed n =
    let rng = Rng.create seed in
    let layout = Sensor.Placement.uniform rng ~n ~width:200. ~height:200. () in
    let range = Sensor.Topology.min_connecting_range layout *. 1.1 in
    let topo = Sensor.Topology.build layout ~range in
    Format.printf "%a@.radio range: %.1f m@." Sensor.Topology.pp topo range;
    let annotate i =
      Printf.sprintf "(depth %d, subtree %d)" topo.Sensor.Topology.depth.(i)
        topo.Sensor.Topology.subtree_size.(i)
    in
    Format.printf "%a" (Sensor.Render.pp_tree ~annotate) topo
  in
  Cmd.v (Cmd.info "topology" ~doc:"Generate a network and print its tree.")
    Term.(const run $ seed_arg $ nodes_arg)

let plan_cmd =
  let run seed n k n_samples budget planner =
    let env = build_env seed n k n_samples budget in
    let plan = make_plan env planner k in
    Format.printf "budget: %.1f mJ@." env.budget_mj;
    let annotate i =
      match Prospector.Plan.bandwidth plan i with
      | 0 when i <> env.topo.Sensor.Topology.root -> ""
      | 0 -> "[root]"
      | b -> Printf.sprintf "[bw %d]" b
    in
    Format.printf "%a" (Sensor.Render.pp_tree ~annotate) env.topo;
    Format.printf "static collection cost: %.1f mJ, trigger: %.1f mJ@."
      (Prospector.Plan.expected_collection_mj env.topo env.cost plan)
      (Prospector.Plan.trigger_mj env.topo env.mica plan)
  in
  Cmd.v
    (Cmd.info "plan" ~doc:"Build a top-k query plan and print it.")
    Term.(
      const run $ seed_arg $ nodes_arg $ k_arg $ samples_arg $ budget_arg
      $ planner_arg)

let query_cmd =
  let run seed n k n_samples budget planner =
    let env = build_env seed n k n_samples budget in
    let plan = make_plan env planner k in
    let readings = env.field.Sampling.Field.draw env.rng in
    let o = Prospector.Exec.collect env.topo env.cost plan ~k ~readings in
    Format.printf "answer:@.";
    List.iter
      (fun (i, v) -> Format.printf "  node %3d  %8.2f@." i v)
      o.Prospector.Exec.returned;
    Format.printf "accuracy %.0f%%, energy %.1f mJ, %d messages@."
      (100. *. Prospector.Exec.accuracy ~k ~readings o.Prospector.Exec.returned)
      o.Prospector.Exec.collection_mj o.Prospector.Exec.messages
  in
  Cmd.v
    (Cmd.info "query" ~doc:"Plan and execute a top-k query on a fresh epoch.")
    Term.(
      const run $ seed_arg $ nodes_arg $ k_arg $ samples_arg $ budget_arg
      $ planner_arg)

let exact_cmd =
  let run seed n k n_samples budget =
    let env = build_env seed n k n_samples budget in
    let min_cost =
      Prospector.Plan.expected_collection_mj env.topo env.cost
        (Prospector.Proof_exec.min_bandwidth_plan env.topo)
    in
    let phase1_budget = Float.max env.budget_mj (1.2 *. min_cost) in
    let proof =
      Prospector.Lp_proof.plan env.topo env.cost env.samples
        ~budget:phase1_budget ~k
    in
    let readings = env.field.Sampling.Field.draw env.rng in
    let o =
      Prospector.Exact.run env.topo env.cost env.mica
        proof.Prospector.Lp_proof.plan ~k ~readings
    in
    Format.printf "exact top %d:@." k;
    List.iter
      (fun (i, v) -> Format.printf "  node %3d  %8.2f@." i v)
      o.Prospector.Exact.answer;
    Format.printf
      "phase 1: %.1f mJ (%d/%d proven);  mop-up: %.1f mJ;  total %.1f mJ@."
      o.Prospector.Exact.phase1_mj o.Prospector.Exact.proven_after_phase1 k
      o.Prospector.Exact.phase2_mj
      (Prospector.Exact.total_mj o);
    let naive =
      Prospector.Naive.naive_k env.topo env.cost ~k ~readings
    in
    Format.printf "NAIVE-k would spend %.1f mJ@."
      naive.Prospector.Naive.collection_mj
  in
  Cmd.v
    (Cmd.info "exact"
       ~doc:"Run the two-phase exact top-k query (proof plan + mop-up).")
    Term.(
      const run $ seed_arg $ nodes_arg $ k_arg $ samples_arg $ budget_arg)

(* The experiment registry: every table, figure and ablation of the
   evaluation (DESIGN.md's experiment index), in paper order. *)
let experiments =
  let series (run : ?quick:bool -> seed:int -> unit -> _) ~quick ~seed =
    run ~quick ~seed ()
  in
  [
    ( "table1",
      fun ~quick:_ ~seed:_ ->
        Experiments.Table1.run ();
        [] );
    ("fig3", series Experiments.Fig3.run);
    ("fig4", series Experiments.Fig4.run);
    ("fig5", series Experiments.Fig5.run);
    ("fig7", series Experiments.Fig7.run);
    ("fig8", series Experiments.Fig8.run);
    ("fig9", series Experiments.Fig9.run);
    ("samples", series Experiments.Sample_size.run);
    ("failures", series Experiments.Ablation_failures.run);
    ("loss", series Experiments.Ablation_loss.run);
    ("drift", series Experiments.Ablation_drift.run);
    ("rounding", series Experiments.Ablation_rounding.run);
    ("generalized", series Experiments.Generalized.run);
    ("lifetime", series Experiments.Lifetime_exp.run);
    ("modelgen", series Experiments.Model_sampling.run);
    ("guarantee-curve", series Experiments.Guarantee_curve.run);
  ]

let experiment_cmd =
  let name_arg =
    Arg.(
      required
      & pos 0 (some (enum experiments)) None
      & info [] ~docv:"NAME"
          ~doc:("Experiment to run: " ^ doc_alts_enum experiments ^ "."))
  in
  let quick_arg =
    Arg.(value & flag & info [ "quick" ] ~doc:"Small instances.")
  in
  let run runner quick seed =
    Experiments.Series.print_all Format.std_formatter (runner ~quick ~seed)
  in
  Cmd.v
    (Cmd.info "experiment"
       ~doc:"Regenerate one of the paper's tables, figures or ablations.")
    Term.(const run $ name_arg $ quick_arg $ seed_arg)

let () =
  let doc = "Sampling-based top-k query planning for sensor networks" in
  let info = Cmd.info "prospector" ~version:"1.0.0" ~doc in
  exit (Cmd.eval (Cmd.group info [ topology_cmd; plan_cmd; query_cmd; exact_cmd; experiment_cmd ]))
