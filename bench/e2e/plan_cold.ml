(* plan-cold: one operation is a cold LP+LF plan followed by its
   evaluation over held-out epochs with the analytic executor.  A pass
   sets the corpus up afresh and plans every instance once, interleaving
   the four size classes; the run repeats passes. *)

open Common

let name = "plan-cold"

(* (class, n, window m, k, budget factor) *)
let classes =
  [
    ("n50", 50, 15, 10, 1.2);
    ("n100", 100, 30, 20, 1.2);
    ("n100t", 100, 30, 20, 0.5);
    ("n150t", 150, 30, 20, 0.5);
  ]

let class_names = List.map (fun (c, _, _, _, _) -> c) classes
let per_class = 2
let heldout = 200
let warm_factor = 1.05
let warm_reps = 8

type inst = {
  cls : string;
  it : instance;
  epochs : epoch array;
  b_cols : int array;  (* LP column of node i's bandwidth, -1 for the root *)
}

type env = inst array

(* Recover which LP column holds each node's bandwidth from the model's
   variable names ("b<node>").  Every replayed plan is checked against
   [Lp_lf.plan]'s bit for bit, so a naming change fails loudly. *)
let bandwidth_columns (it : instance) =
  let model = Prospector.Lp_lf.lp_model it.topo it.cost it.samples ~budget:it.budget ~k:it.k in
  let cols = Array.make it.topo.Sensor.Topology.n (-1) in
  for v = 0 to Lp.Model.n_vars model - 1 do
    let nm = Lp.Model.var_name model (Lp.Model.var_of_index model v) in
    if String.length nm > 1 && Char.equal nm.[0] 'b' then
      match int_of_string_opt (String.sub nm 1 (String.length nm - 1)) with
      | Some node -> cols.(node) <- v
      | None -> ()
  done;
  cols

let setup ctx =
  let rng = corpus_rng 1 in
  let by_class =
    List.map
      (fun (cls, n, m, k, factor) ->
        let n, m, k = if ctx.smoke then (Int.max 12 (n / 5), Int.max 4 (m / 4), Int.max 3 (k / 4)) else (n, m, k) in
        List.init per_class (fun _ -> (cls, k, make_instance rng ~n ~m ~k ~budget_factor:factor)))
      classes
  in
  (* interleave the classes: n50, n100, n100t, n150t, n50, ... *)
  let by_class = List.map Array.of_list by_class in
  let order = List.concat (List.init per_class (fun i -> List.map (fun a -> a.(i)) by_class)) in
  let erng = Rng.create (sub_seed ctx 1) in
  let h = if ctx.smoke then 10 else heldout in
  Array.of_list
    (List.map
       (fun (cls, k, it) ->
         { cls; it; epochs = Array.init h (fun _ -> make_epoch erng it.field ~k); b_cols = bandwidth_columns it })
       order)

let evaluate (it : instance) plan epochs =
  Array.map
    (fun (e : epoch) -> Prospector.Exec.collect it.topo it.cost plan ~k:it.k ~readings:e.readings)
    epochs

let score (it : instance) epochs outs =
  let acc = ref 0. and mj = ref 0. in
  Array.iteri
    (fun j (o : Prospector.Exec.outcome) ->
      acc := !acc +. accuracy ~k:it.k epochs.(j) o.Prospector.Exec.returned;
      mj := !mj +. o.Prospector.Exec.collection_mj)
    outs;
  let h = float_of_int (Array.length epochs) in
  (!acc /. h, !mj /. h)

(* Lp_lf.plan replayed as its public parts, each under its own span. *)
let replay spans (p : inst) ~budget ?basis () =
  let it = p.it in
  let model =
    Spans.span spans Obs.Trace.Plan "lp_lf.lp_model" (fun () ->
        Prospector.Lp_lf.lp_model it.topo it.cost it.samples ~budget ~k:it.k)
  in
  let prob = Spans.span spans Obs.Trace.Solve "lp.to_problem" (fun () -> Lp.Model.to_problem model) in
  let res = Spans.span spans Obs.Trace.Solve "lp.revised.solve" (fun () -> Lp.Revised.solve ?basis prob) in
  let report =
    Spans.span spans Obs.Trace.Certify "lp.certify" (fun () ->
        Lp.Certify.certify_optimal prob ~x:res.Lp.Revised.x ~duals:res.Lp.Revised.duals)
  in
  let fractional = Array.map (fun c -> if c < 0 then 0. else res.Lp.Revised.x.(c)) p.b_cols in
  let plan =
    Spans.span spans Obs.Trace.Plan "plan.of_fractional" (fun () ->
        Prospector.Plan.of_fractional it.topo fractional)
  in
  if not (report.Lp.Certify.certified && res.Lp.Revised.status = Lp.Revised.Optimal) then
    fail "%s/%s: replayed solve is not certified optimal" name p.cls;
  (res, plan)

let plan_direct (p : inst) ~budget =
  let it = p.it in
  let r = Prospector.Lp_lf.plan it.topo it.cost it.samples ~budget ~k:it.k in
  if not (certified r.Prospector.Lp_lf.certify) then fail "%s/%s: plan is not certified" name p.cls;
  r

type extra = {
  check_residual : bool;
  inst_cls : string array;
  cold_ops : (int * int) list;  (* (instance, op id) of each traced operation *)
  direct_s : (int * float) list;  (* (op id, untraced Lp_lf.plan seconds timed beside it), traced run *)
  stats : Lp.Revised.stats option array;
  warm_ops : (int * int) list;
  warm_stats : Lp.Revised.stats option array;
}

let measure ctx ~fresh ~spans ~seconds =
  let traced = Spans.enabled spans in
  let ni = List.length classes * per_class in
  let env = ref [||] and op_s = ref [] in
  let cold_ops = ref [] and direct_s = ref [] in
  let stats = Array.make ni None and bases = Array.make ni None in
  let reference = Array.make ni None in
  repeat_for ~seconds (fun pass ->
      env := fresh ();
      Array.iteri
        (fun i p ->
          let it = p.it in
          (* In the traced run, the untraced [Lp_lf.plan] the replay must
             reproduce is timed right beside it, for the unattributed
             residual; which of the two goes first alternates by pass. *)
          let direct () = timed (fun () -> plan_direct p ~budget:it.budget) in
          let before = if traced && pass mod 2 = 1 then Some (direct ()) else None in
          let t0 = now () in
          let bw, acc, mj =
            Spans.op spans Obs.Trace.Plan (name ^ "." ^ p.cls) (fun () ->
                let plan =
                  if traced then begin
                    let res, plan = replay spans p ~budget:it.budget () in
                    stats.(i) <- Some res.Lp.Revised.stats;
                    bases.(i) <- Some res.Lp.Revised.basis;
                    plan
                  end
                  else (plan_direct p ~budget:it.budget).Prospector.Lp_lf.plan
                in
                let outs = Spans.span spans Obs.Trace.Epoch "exec.collect" (fun () -> evaluate it plan p.epochs) in
                let acc, mj = score it p.epochs outs in
                (bandwidths it.topo plan, acc, mj))
          in
          op_s := (i, now () -. t0) :: !op_s;
          if traced then begin
            let op = Spans.last_op spans in
            cold_ops := (i, op) :: !cold_ops;
            let dt, r = match before with Some d -> d | None -> direct () in
            direct_s := (op, dt) :: !direct_s;
            if bandwidths it.topo r.Prospector.Lp_lf.plan <> bw then
              fail "%s/%s: replayed plan differs from Lp_lf.plan's" name p.cls
          end;
          match reference.(i) with
          | None -> reference.(i) <- Some (bw, acc, mj)
          | Some (bw0, acc0, mj0) ->
              if bw <> bw0 || not (Float.equal acc acc0 && Float.equal mj mj0) then
                fail "%s/%s: plan, accuracy or energy differs across passes" name p.cls)
        !env);
  let env = !env in
  (* The warm probe: re-solve each instance at a 5% larger budget from its
     cold basis, after the measured loop and outside the layer shares. *)
  let warm_ops = ref [] and warm_stats = Array.make ni None in
  if traced then
    Array.iteri
      (fun i p ->
        let budget = warm_factor *. p.it.budget in
        let cold = plan_direct p ~budget in
        for _ = 1 to (if ctx.smoke then 1 else warm_reps) do
          let res, _ =
            Spans.op spans Obs.Trace.Plan (probe_prefix ^ "warm." ^ p.cls) (fun () ->
                replay spans p ~budget ?basis:bases.(i) ())
          in
          warm_ops := (i, Spans.last_op spans) :: !warm_ops;
          warm_stats.(i) <- Some res.Lp.Revised.stats;
          let obj = cold.Prospector.Lp_lf.lp_objective in
          (* the revised solver minimizes the negated objective *)
          if Float.abs (res.Lp.Revised.objective +. obj) > 1e-6 *. Float.max 1. (Float.abs obj) then
            fail "%s/%s: warm objective %.9g differs from cold %.9g" name p.cls (-.res.Lp.Revised.objective) obj
        done)
      env;
  let quality f =
    let sum = ref 0. in
    Array.iteri (fun i p -> Option.iter (fun r -> sum := !sum +. f p r) reference.(i)) env;
    !sum /. float_of_int ni
  in
  {
    e2e =
      [
        ops_per_s ~count:ni !op_s;
        latency_metric (Array.map (fun s -> 1000. *. s) (best_by_key !op_s));
        metric ~samples:ni ~exact:true "accuracy" "frac" (quality (fun _ (_, acc, _) -> acc));
        metric ~samples:ni ~exact:true "energy_budget_frac" "frac" (quality (fun p (_, _, mj) -> mj /. p.it.budget));
      ];
    op_s = !op_s;
    attempted = List.length !op_s;
    failed = 0;
    extra =
      {
        check_residual = not ctx.smoke;
        inst_cls = Array.map (fun p -> p.cls) env;
        cold_ops = !cold_ops;
        direct_s = !direct_s;
        stats;
        warm_ops = !warm_ops;
        warm_stats;
      };
  }

let part_names = [ "lp_lf.lp_model"; "lp.to_problem"; "lp.revised.solve"; "lp.certify"; "plan.of_fractional" ]

let layer_keys = List.filter (fun (span, _) -> List.mem span ("exec.collect" :: part_names)) layer_names

let layers ~untraced:_ ~traced all =
  let x = traced.extra in
  let env_cls = x.inst_cls in
  let by_op = Hashtbl.create 256 in
  List.iter
    (fun (s : Spans.span) ->
      Hashtbl.replace by_op s.Spans.op (s :: Option.value (Hashtbl.find_opt by_op s.Spans.op) ~default:[]))
    all;
  let spans_of op = Option.value (Hashtbl.find_opt by_op op) ~default:[] in
  let dur op pred =
    List.fold_left (fun acc (s : Spans.span) -> if pred s then acc +. s.Spans.dur_s else acc) 0. (spans_of op)
  in
  let named nm (s : Spans.span) = String.equal s.Spans.name nm in
  let root (s : Spans.span) = s.Spans.parent = 0 in
  let part (s : Spans.span) = List.exists (String.equal s.Spans.name) part_names in
  let in_class cls ops = List.filter (fun (i, _) -> String.equal env_cls.(i) cls) ops in
  let sum f l = List.fold_left (fun acc v -> acc +. f v) 0. l in
  let instances cls = List.filter (fun i -> String.equal env_cls.(i) cls) (List.init (Array.length env_cls) Fun.id) in
  let per_class cls =
    let ops = in_class cls x.cold_ops in
    let total = sum (fun (_, op) -> dur op root) ops in
    let frac nm = if total > 0. then sum (fun (_, op) -> dur op (named nm)) ops /. total else 0. in
    (* residual: each replayed operation's parts against the untraced
       Lp_lf.plan timed beside it, so that both see the same machine; the
       metric is the median over the class's operations.  One pair still
       varies by several percent either way on a shared machine, so the
       run fails only when three quarters of the pairs leave more than 10%
       unattributed, which a layer missing from the replay would do. *)
    let residuals =
      Array.of_list
        (List.filter_map
           (fun (_, op) ->
             match List.assoc_opt op x.direct_s with
             | Some d when d > 0. -> Some (Spans.unattributed ~total:d ~parts:(dur op part))
             | _ -> None)
           ops)
    in
    let unattributed = if Array.length residuals = 0 then 0. else Stats.median residuals in
    (* tiny smoke instances solve in microseconds, too fast to attribute *)
    if x.check_residual && Array.length residuals >= 2 then begin
      let q1, _, _ = Stats.quartiles residuals in
      if q1 > 0.10 then
        fail "%s/%s: three quarters of Lp_lf.plan calls leave over 10%% unattributed (lower quartile %.1f%%)"
          name cls (100. *. q1)
    end;
    let stat f sts =
      let vs =
        List.filter_map (fun i -> Option.map (fun s -> float_of_int (f s)) sts.(i)) (instances cls)
      in
      Stats.mean (Array.of_list vs)
    in
    let solve ops = Array.of_list (List.map (fun (_, op) -> dur op (named "lp.revised.solve")) ops) in
    let warm = solve (in_class cls x.warm_ops) and cold = solve ops in
    List.map (fun (span_name, key) -> metric (Printf.sprintf "%s.frac.%s" key cls) "frac" (frac span_name)) layer_keys
    @ [
        metric ("plan.unattributed_frac." ^ cls) "frac" unattributed;
        metric ~exact:true ("lp.revised.pivots." ^ cls) "count" (stat (fun s -> s.Lp.Revised.iterations) x.stats);
        metric ~exact:true ("lp.revised.phase1_pivots." ^ cls) "count" (stat (fun s -> s.Lp.Revised.phase1_iterations) x.stats);
        metric ~exact:true ("lp.revised.refactorizations." ^ cls) "count" (stat (fun s -> s.Lp.Revised.refactorizations) x.stats);
        metric ~exact:true ("lp.revised.degenerate_pivots." ^ cls) "count" (stat (fun s -> s.Lp.Revised.degenerate_pivots) x.stats);
        metric ~exact:true ("lp.revised.warm_pivots." ^ cls) "count" (stat (fun s -> s.Lp.Revised.iterations) x.warm_stats);
        metric ("lp.revised.warm_vs_cold." ^ cls) "frac"
          (if Array.length warm = 0 || Array.length cold = 0 then 0. else Stats.median warm /. Stats.median cold);
      ]
  in
  (* where the warm re-solve's time goes, at the headline size *)
  let warm_n100 = in_class "n100" x.warm_ops in
  let warm_total = sum (fun (_, op) -> dur op root) warm_n100 in
  List.concat_map per_class class_names
  @ List.filter_map
      (fun (span_name, key) ->
        if String.equal span_name "exec.collect" then None
        else
          Some
            (metric (Printf.sprintf "warm.%s.frac.n100" key) "frac"
               (if warm_total > 0. then sum (fun (_, op) -> dur op (named span_name)) warm_n100 /. warm_total
                else 0.)))
      layer_keys
