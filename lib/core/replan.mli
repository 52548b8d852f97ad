(** Plan re-calculation policy (Section 4.4, "Plan Re-calculation").

    Disseminating a new plan costs a unicast per participating node, so it
    is prohibitive to re-install on every change.  The base station instead
    re-optimizes locally (it has power to spare) and disseminates only when
    the candidate plan beats the installed one by a clear margin on the
    current sample window — enough that the expected accuracy gain repays
    the installation cost over the plan's lifetime. *)

type t

type decision =
  | Kept  (** candidate not convincingly better; nothing transmitted *)
  | Disseminated of { plan : Plan.t; guarantee : Guarantee.t option }
      (** new plan installed (the caller pays {!Plan.install_mj}); every
          disseminated plan records the certified (ε, δ) bound it was
          admitted under — from the split-window escalation when a
          [?guarantee] target was given, otherwise computed on the
          current window at the default confidence (that bound reuses the
          window that chose the plan, a bias documented in
          {!Guarantee}) *)

val create :
  ?min_gain:float ->
  ?amortization_runs:int ->
  initial:Plan.t ->
  unit ->
  t
(** [min_gain] (default 0.05) is the minimum improvement in expected
    accuracy (fraction of sample answer entries covered) that justifies
    dissemination; [amortization_runs] (default 50) is how many executions
    a plan is expected to serve, used to weigh the installation cost. *)

val current : t -> Plan.t

val force :
  t ->
  Sensor.Topology.t ->
  Sensor.Cost.t ->
  Plan.t ->
  k:int ->
  Sampling.Sample_set.t ->
  Guarantee.t
(** Install a plan unconditionally (used by periodic re-planning
    baselines); counts as a dissemination.  Like {!consider}'s
    dissemination path it computes and returns the default-confidence
    {!Guarantee.t} on the given window, so even forced installs carry a
    machine-checkable bound (with no LP certificate to fold in, the
    bound's [lp_eps] is 0). *)

val replans : t -> int
(** How many times a new plan has been disseminated. *)

val expected_accuracy :
  Sensor.Topology.t -> Sensor.Cost.t -> Plan.t -> k:int ->
  Sampling.Sample_set.t -> float
(** Mean fraction of each sample's top k that the plan returns when
    executed on that sample — the score the policy compares. *)

val consider :
  ?max_lp_iterations:int ->
  ?lp_deadline:float ->
  ?guarantee:float * float ->
  t ->
  Sensor.Topology.t ->
  Sensor.Cost.t ->
  Sensor.Mica2.t ->
  Sampling.Sample_set.t ->
  k:int ->
  budget:float ->
  decision
(** Re-optimize (PROSPECTOR-LP+LF) against the given samples and decide.
    A candidate must beat the incumbent by [min_gain] expected accuracy
    {e and} offer a per-run energy headroom that repays the install cost
    within [amortization_runs] executions.  A candidate whose provenance is
    {!Robust_plan.Fell_back_greedy} (the LP solve was not certified, e.g.
    under a crippled [max_lp_iterations]/[lp_deadline]) is never
    disseminated: the answer is always [Kept] and the stored warm-start
    token survives for the next certified solve.

    [guarantee:(eps, delta)] additionally demands the candidate certify
    "expected accuracy >= [1 - eps] w.p. >= [1 - delta]" (see
    {!Lp_lf.plan}); a candidate whose bound falls short of the target is
    treated like an uncertified one — [Kept], never disseminated.  Note
    the escalation ladder may plan the candidate at a higher energy
    budget than [budget] (that is the guarantee/energy trade). *)
