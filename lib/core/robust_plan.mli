(** Certified LP solving with a fallback chain (robustness layer).

    The LP planners treat the simplex solvers as untrusted components:
    every claimed solution is re-checked by {!Lp.Certify} against nothing
    but the problem data, and a failed check triggers a fallback instead of
    a crash or a silently wrong plan.  The chain is

    {v revised simplex -> certify -> dense tableau -> certify -> greedy v}

    where the greedy step lives in the individual planners (it needs
    planner-specific inputs); this module covers the two LP stages and
    tells the planner, via {!provenance}, which stage produced the answer
    it is about to ship. *)

type provenance =
  | Certified_revised
      (** the revised simplex solution passed independent certification *)
  | Certified_dense
      (** the revised solution failed certification (or hit its budget);
          the dense reference tableau's solution passed instead *)
  | Fell_back_greedy
      (** neither LP stage produced a certified solution; the planner used
          its combinatorial greedy fallback.  Never disseminated by
          {!Replan}. *)

type lp_result = {
  solution : Lp.Model.solution;
  report : Lp.Certify.report;  (** the certification that admitted it *)
  provenance : provenance;  (** {!Certified_revised} or {!Certified_dense} *)
}

type failure =
  | Proved_infeasible of Lp.Certify.report
      (** the model is infeasible, with a certified Farkas certificate *)
  | Proved_unbounded of Lp.Certify.report
      (** the model is unbounded, with a certified improving ray *)
  | No_certified_solution of string list
      (** neither solver produced a certifiable claim; the reasons from
          both certification attempts, in chain order *)

val solve :
  ?warm_start:Lp.Model.basis ->
  ?max_iterations:int ->
  ?deadline:float ->
  ?problem:Lp.Problem.t ->
  Lp.Model.t ->
  (lp_result, failure) result
(** Run the chain on a model.  [max_iterations] caps the revised solver's
    pivots and the dense solver's total pivots alike (so tests can cripple
    both stages); [deadline] is a wall-clock budget for the revised stage.
    [warm_start] is validated against the model with the LP layer's shared
    {!Lp.Model.basis_compatible} predicate — the single implementation of
    the shape rule for every planner routing through this chain ([Replan],
    [Repair], the serving layer's warm-basis pool); an incompatible token
    is dropped and the solve starts cold.  [problem] is the model's
    lowering with patched right-hand sides or bounds
    ({!Lp.Model.solve_certified}); both stages solve that patched LP, so a
    re-solve never falls back to the model's build-time data.  Never
    raises on solver failure: the worst outcome is
    [Error (No_certified_solution _)], which a planner answers with its
    greedy fallback. *)

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
