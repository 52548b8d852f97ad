let src = Logs.Src.create "prospector.robust" ~doc:"Certified LP solve"

module Log = (val Logs.src_log src : Logs.LOG)

type provenance = Certified_revised | Fell_back_greedy

type lp_result = { solution : Lp.Model.solution; report : Lp.Certify.report }

type failure =
  | Proved_infeasible of Lp.Certify.report
  | Proved_unbounded of Lp.Certify.report
  | No_certified_solution of string list

let solve ?warm_start ?max_iterations ?deadline ?problem model =
  (* Every planner (Replan, Repair, the serving layer's warm-basis pool)
     funnels its warm-start tokens through here, so this one call to the
     LP layer's shared predicate is the basis-compatibility check for all
     of them: a stale token from a differently shaped instance is dropped
     instead of relying on each caller to re-derive the
     shape rule. *)
  let warm_start =
    match warm_start with
    | Some b when not (Lp.Model.basis_compatible model b) -> None
    | w -> w
  in
  let solution, report =
    Lp.Model.solve_certified ?warm_start ?max_iterations ?deadline ?problem
      model
  in
  if report.Lp.Certify.certified then
    match solution.Lp.Model.status with
    | Lp.Model.Optimal -> Ok { solution; report }
    | Lp.Model.Infeasible -> Error (Proved_infeasible report)
    | Lp.Model.Unbounded -> Error (Proved_unbounded report)
    | Lp.Model.Iteration_limit ->
        (* [solve_certified] rejects limit statuses outright. *)
        assert false
  else begin
    Log.warn (fun m ->
        m "revised solve not certified (%s); planner must fall back"
          (String.concat "; " report.Lp.Certify.reasons));
    Error (No_certified_solution report.Lp.Certify.reasons)
  end

(* ---- planning to a certified (eps, delta) target ---- *)

type 'r attempt = {
  result : 'r;
  plan : Plan.t;
  guarantee : Guarantee.t;
  budget : float;
}

type 'r guaranteed = { chosen : 'r attempt; attained : bool; escalations : int }

let plan_with_guarantee ?(max_escalations = 6) ?(growth = 1.5) ~eps ~delta
    ~planner ~describe topo cost ~k samples ~budget =
  (* Written so that NaN fails each check. *)
  if not (eps > 0.) then
    invalid_arg "Robust_plan.plan_with_guarantee: eps <= 0";
  if not (delta > 0. && delta < 1.) then
    invalid_arg "Robust_plan.plan_with_guarantee: delta must be in (0, 1)";
  if not (growth >= 1.) then
    invalid_arg "Robust_plan.plan_with_guarantee: growth must be >= 1";
  if max_escalations < 0 then
    invalid_arg "Robust_plan.plan_with_guarantee: negative max_escalations";
  let m = Sampling.Sample_set.n_samples samples in
  (* Plan on the first half, certify on the disjoint second half.  Tiny
     windows cannot be split; the bound then reuses the planning samples
     and carries the (documented) selection bias. *)
  let plan_window, cert_window =
    if m >= 4 then
      ( Sampling.Sample_set.slice samples ~offset:0 ~count:(m / 2),
        Sampling.Sample_set.slice samples ~offset:(m / 2) ~count:(m - (m / 2))
      )
    else (samples, samples)
  in
  (* Each rung is one data-dependent look at the certification window;
     certifying every rung at delta / rungs keeps the chosen plan's bound
     valid at delta by a union bound over the ladder. *)
  let rungs = max_escalations + 1 in
  let delta_rung = delta /. float_of_int rungs in
  let certify_rung ~rung_budget =
    let result = planner ~samples:plan_window ~budget:rung_budget in
    let plan, report, objective = describe result in
    let guarantee =
      Guarantee.compute ~delta:delta_rung ?report ?objective topo cost plan ~k
        cert_window
    in
    { result; plan; guarantee; budget = rung_budget }
  in
  let rec ladder e best =
    if e >= rungs then begin
      Log.warn (fun msg ->
          msg
            "guarantee target (eps = %g, delta = %g) unattainable within %d \
             escalations; best certified lower bound %.4f"
            eps delta max_escalations best.guarantee.Guarantee.certified_lower);
      { chosen = best; attained = false; escalations = max_escalations }
    end
    else begin
      let a = certify_rung ~rung_budget:(budget *. (growth ** float_of_int e)) in
      if Guarantee.meets a.guarantee ~eps ~delta then
        { chosen = a; attained = true; escalations = e }
      else begin
        let best =
          (* Strict improvement only: ties keep the earlier (cheaper)
             rung, making the reported fallback deterministic. *)
          if
            a.guarantee.Guarantee.certified_lower
            > best.guarantee.Guarantee.certified_lower
          then a
          else best
        in
        ladder (e + 1) best
      end
    end
  in
  let first = certify_rung ~rung_budget:budget in
  if Guarantee.meets first.guarantee ~eps ~delta then
    { chosen = first; attained = true; escalations = 0 }
  else ladder 1 first

let provenance_equal a b =
  match (a, b) with
  | Certified_revised, Certified_revised
  | Fell_back_greedy, Fell_back_greedy ->
      true
  | (Certified_revised | Fell_back_greedy), _ -> false

let pp_provenance ppf = function
  | Certified_revised -> Format.pp_print_string ppf "certified-revised"
  | Fell_back_greedy -> Format.pp_print_string ppf "fell-back-greedy"
