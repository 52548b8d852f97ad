(** Certified LP solving: revised or refuse (robustness layer).

    The LP planners treat the simplex solver as an untrusted component:
    every claimed solution is re-checked by {!Lp.Certify} against nothing
    but the problem data, and a failed check refuses the claim instead of
    crashing or shipping a silently wrong plan.  The chain is

    {v revised simplex -> certify -> greedy v}

    where the greedy step lives in the individual planners (it needs
    planner-specific inputs); this module covers the LP stage.  A planner
    records where its plan came from in a {!provenance}. *)

type provenance =
  | Certified_revised
      (** the revised simplex solution passed independent certification:
          primal and dual feasibility and the duality gap *)
  | Fell_back_greedy
      (** the LP stage produced no certified solution; the planner used
          its combinatorial greedy fallback.  Never disseminated by
          {!Replan} nor served. *)

type lp_result = {
  solution : Lp.Model.solution;  (** an optimal solution *)
  report : Lp.Certify.report;  (** the certification that admitted it *)
}

type failure =
  | Proved_infeasible of Lp.Certify.report
      (** the model is infeasible, with a certified Farkas certificate *)
  | Proved_unbounded of Lp.Certify.report
      (** the model is unbounded, with a certified improving ray *)
  | No_certified_solution of string list
      (** the revised solver produced no certifiable claim (an
          iteration or time limit, or a claim that failed its check);
          the certification's reasons *)

val solve :
  ?warm_start:Lp.Model.basis ->
  ?max_iterations:int ->
  ?deadline:float ->
  ?problem:Lp.Problem.t ->
  Lp.Model.t ->
  (lp_result, failure) result
(** Solve a model with the revised simplex and certify the claim: [Ok]
    a certified optimum; [Error] a certified infeasibility or
    unboundedness, or [No_certified_solution] for anything else.  No
    other solver is tried.  [max_iterations] caps the revised solver's
    pivots (so tests can cripple it); [deadline] is a wall-clock budget
    in seconds for the revised solver, and so for the whole chain: a
    solve it stops is refused ([No_certified_solution]) with no other
    solver run after it.  [warm_start] is validated against the
    model with the LP layer's shared {!Lp.Model.basis_compatible}
    predicate — the single implementation of the shape rule for every
    planner routing through here ([Replan], [Repair], the serving
    layer's warm-basis pool); an incompatible token is dropped and the
    solve starts cold.  [problem] is the model's lowering with patched
    right-hand sides or bounds ({!Lp.Model.solve_certified}); the solve
    and its certification use it, so a re-solve never falls back to the
    model's build-time data.  Never raises on solver failure: the worst
    outcome is [Error (No_certified_solution _)], which a planner answers
    with its greedy fallback. *)

val provenance_equal : provenance -> provenance -> bool
(** Structural equality on {!provenance} (avoids polymorphic [=]). *)

val pp_provenance : Format.formatter -> provenance -> unit

(** {1 Planning to a certified (ε, δ) target}

    [plan_with_guarantee] wraps any planner in a budget-escalation loop
    that stops when the plan's {!Guarantee} certifies the requested
    target "expected top-k accuracy at least [1 - eps], with failure
    probability at most [delta]" — or declares the target unattainable
    within the escalation ladder, returning the best attempt.

    Soundness measures baked into the loop (see DESIGN.md, "Error
    guarantees"):
    - the sample window is split — plans are optimized on the first half
      and certified on the disjoint second half, so the certification
      samples are independent of the plan they certify (windows shorter
      than 4 samples cannot be split; the full window is then used for
      both and the resulting bound carries the reuse bias);
    - picking the first of up to [max_escalations + 1] data-dependent
      attempts is itself a selection, so each rung's bound is computed at
      level [delta / (max_escalations + 1)]; a union bound then makes the
      {e chosen} plan's certificate valid at level [delta]. *)

type 'r attempt = {
  result : 'r;  (** the planner's full result at this rung *)
  plan : Plan.t;
  guarantee : Guarantee.t;
  budget : float;  (** the budget this rung planned against *)
}

type 'r guaranteed = {
  chosen : 'r attempt;
      (** the first attempt meeting the target, or — when unattained —
          the attempt with the highest certified lower bound (earliest,
          hence cheapest, on ties) *)
  attained : bool;
  escalations : int;  (** budget raises actually performed *)
}

val plan_with_guarantee :
  ?max_escalations:int ->
  ?growth:float ->
  eps:float ->
  delta:float ->
  planner:(samples:Sampling.Sample_set.t -> budget:float -> 'r) ->
  describe:('r -> Plan.t * Lp.Certify.report option * float option) ->
  Sensor.Topology.t ->
  Sensor.Cost.t ->
  k:int ->
  Sampling.Sample_set.t ->
  budget:float ->
  'r guaranteed
(** Run the ladder [budget, budget * growth, ...] ([max_escalations]
    raises, default 6; [growth] default 1.5).  [planner] is called with
    the plan-window slice and the rung's budget; [describe] projects its
    result to the plan, the certification report that admitted the LP
    solution (to fold the duality gap into the bound) and the LP
    objective.  Deterministic: same inputs, same ladder, same choice.
    @raise Invalid_argument on [eps <= 0], [delta] outside (0, 1),
    [growth < 1] or negative [max_escalations]. *)
