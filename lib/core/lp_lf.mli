(** PROSPECTOR-LP+LF: topology-aware planning with local filtering
    (Section 4.2).

    The plan is a bandwidth assignment [b_e] per edge.  One relaxed 0/1
    variable [y_{j,i}] exists per (sample [j], node [i] in [ones(j)]) —
    "the plan returns [i]'s value when executed on sample [j]" — so the
    plan can make run-time decisions per sample: a subtree that reliably
    contains some top-k values, each time in a different node, can be
    covered with a small bandwidth (the local filter passes whichever
    values win that day).

    Constraints: [y <= z] on the node's own edge plus z-monotonicity up the
    tree (compact equivalent of the paper's per-ancestor rows), a bandwidth
    row per (edge, sample) limiting how many covered ones can flow through
    the edge, activation [b_e <= cap * z_e], and the energy budget charging
    [cm] per used edge and per-value cost per unit bandwidth.

    Every model this module builds carries a crash start
    ({!Lp.Model.start}), so a solve given no usable warm-start token
    begins at the "everything covered" basis instead of the all-slack
    one: every live [y] at 1, each edge whose subtree holds a live
    sampled one with [z = 1] and [b] basic in its fullest bandwidth row,
    every other row's slack basic.  A dead node's subtree starts at 0
    (its [y]s and [z]s basic at 0 in their own [y <= z] and
    monotonicity rows), so the basis is dual feasible under any [alive]
    mask: the solve ends at once when the budget row holds there, and
    the dual simplex finishes it when not.  The start changes only which
    optimal vertex a degenerate LP ends at, never the optimum. *)

type result = {
  plan : Plan.t;
  lp_objective : float;
  lp_stats : Lp.Revised.stats option;
  fractional : float array;  (** the raw LP bandwidths, for rounding studies *)
  budget_shadow_price : float;
      (** marginal covered-ones per mJ of extra budget at the optimum — the
          number a deployment engineer reads to decide whether raising the
          energy budget is still worth it *)
  basis : Lp.Model.basis option;
      (** warm-start token: feed it back as [?warm_start] to a later [plan]
          call over the same topology and sample-set shape (e.g. a re-plan
          with a perturbed budget) to reuse this solve's final basis *)
  provenance : Robust_plan.provenance;
      (** whether the plan came from a certified LP solution or the greedy
          fallback *)
  certify : Lp.Certify.report option;
      (** the PR-3 certification that admitted the LP solution; [None] for
          the greedy fallback (which makes no LP claim) *)
  guarantee : Guarantee.t option;
      (** the certified (ε, δ) bound attached to the plan; present exactly
          when the [?guarantee] target was supplied *)
  lp_budget : float;
      (** the budget the LP behind [plan] (and [basis]) was solved at: the
          requested budget, except for a guarantee ladder that escalated,
          where it is the chosen rung's *)
}

val plan :
  ?alive:bool array ->
  ?warm_start:Lp.Model.basis ->
  ?max_lp_iterations:int ->
  ?lp_deadline:float ->
  ?guarantee:float * float ->
  Sensor.Topology.t ->
  Sensor.Cost.t ->
  Sampling.Sample_set.t ->
  budget:float ->
  k:int ->
  result
(** Builds an {!instance} and {!solve}s it once; to re-solve the same
    deployment and window at other budgets or alive masks, keep the
    instance instead.  [k] caps the useful bandwidth of any edge (sending
    more than [k] values cannot improve a top-k answer).

    [alive] (default: everyone) masks dead nodes out of the plan without
    changing the LP's shape: a dead node's activation variable gets an
    upper bound of 0, which zeroes its bandwidth, its sample coverage
    and — through z-monotonicity — every edge below it, so warm-start
    tokens from the undamaged instance still apply.  The greedy fallback
    honours the same mask.  The mask must keep the root alive and, being
    tree-structured, a dead node makes its whole subtree unplannable
    whether or not the descendants are masked.

    [warm_start] is best-effort:
    incompatible tokens are ignored.  [max_lp_iterations]/[lp_deadline]
    bound the LP solve; when it is not certified the plan is the
    greedy selection shipped without local filtering (provenance
    {!Robust_plan.Fell_back_greedy}) and the call never raises on solver
    failure.

    [guarantee:(eps, delta)] requests a certified accuracy target and
    routes planning through {!Robust_plan.plan_with_guarantee}: the
    window is split into a planning half and a certification half, the
    budget escalates (warm-starting each rung from the previous one)
    until the bound "expected accuracy >= [1 - eps] w.p. >= [1 - delta]"
    is met, and the result carries the (best) certified bound in
    [guarantee].  Check attainment with {!Guarantee.meets} — an
    unattainable target still returns the best attempt rather than
    raising. *)

(** {1 Re-solving one instance}

    The LP depends on the topology, the costs, the sample window and
    [k]; the energy budget is one right-hand side and a dead node one
    upper bound.  An {!instance} is that LP built and lowered once: each
    {!solve} patches copies of the budget row's right-hand side and of the
    dead nodes' activation bounds and shares the matrix, so a re-solve
    skips the model build and the lowering.  With a warm-start token whose
    basis factors were computed on this instance (see {!Lp.Model.basis}),
    it skips the factorization too. *)

type instance
(** Immutable: one instance may be solved from several domains at once. *)

val instance :
  Sensor.Topology.t ->
  Sensor.Cost.t ->
  Sampling.Sample_set.t ->
  k:int ->
  instance
(** Build and lower the LP+LF program of a deployment and window.
    @raise Invalid_argument if [k < 1]. *)

val problem : ?alive:bool array -> instance -> budget:float -> Lp.Problem.t
(** The lowered LP that {!solve} hands to the certified solve
    ({!Robust_plan.solve}) at this [budget] and [alive] mask: the
    instance's lowering with the budget row's right-hand side and the
    dead nodes' activation bounds patched, and under a mask the crash
    start for that mask; the matrix is shared.  For diagnostics and
    external certification, like {!lp_model}. *)

val solve :
  ?alive:bool array ->
  ?warm_start:Lp.Model.basis ->
  ?max_lp_iterations:int ->
  ?lp_deadline:float ->
  ?guarantee:float * float ->
  instance ->
  budget:float ->
  result
(** {!plan} on the instance's topology, costs, window and [k]: the same
    result, bit for bit, with the same options.  The certified solve
    takes the LP at this [budget] and [alive] mask.  With [guarantee],
    the escalation ladder re-solves every rung from one instance of its
    planning half-window; the instance keeps that half-window instance,
    so every guarantee solve of one instance builds it at most once.
    Building an instance emits an [lp_lf.instance] trace span (rows,
    cols, samples). *)

val lp_model :
  ?alive:bool array ->
  Sensor.Topology.t ->
  Sensor.Cost.t ->
  Sampling.Sample_set.t ->
  budget:float ->
  k:int ->
  Lp.Model.t
(** The LP+LF relaxation as a bare {!Lp.Model.t}, without solving or
    rounding — for benchmarks and diagnostics (e.g. measuring certification
    overhead on the exact model the planner solves).  It carries the
    crash start for [alive], so [Lp.Revised.solve (Lp.Model.to_problem
    m)] starts where {!plan} does and reaches the same basis. *)

(** {1 Budget segments}

    A certified optimal basis stays optimal on a whole interval of
    budgets: dual feasibility does not depend on the budget row's
    right-hand side, and the basic solution is affine in it
    ({!Lp.Ranging}).  An {!Lp.Model.segment} is that basis with its exact
    interval ({!Lp.Model.segment_bounds}); {!solve_segment} serves any
    budget in it from the affine point, certified, with no model build,
    no factorization and no pivot. *)

val segment : instance -> result -> Lp.Model.segment option
(** The budget segment of a plain (full-window, everyone-alive) result's
    basis on this instance, ranged at the result's [lp_budget]: one
    FTRAN through the token's factor cell (factoring and filling it when
    empty, which a later warm start from the token reuses) and a ratio
    test.  [None] for a result that did not come from a certified
    revised basis, or whose basis does not range. *)

val solve_segment : instance -> Lp.Model.segment -> budget:float -> result option
(** The plan at [budget] from the segment's affine point: [Some] a result
    as {!solve} returns it (same rounding and fields; [lp_stats = None]
    since no simplex ran, [basis] the segment's token, provenance
    [Certified_revised]: the revised basis's point, certified at
    [budget]) when {!Lp.Certify.certify_optimal} accepts the point
    against the LP patched at [budget]; [None] otherwise — the caller
    then re-solves warm from {!Lp.Model.segment_basis}. *)
