(** Self-healing execution: plan surgery under node churn.

    The paper's plans are computed once and assume the participant set
    stays alive; under churn a crashed subtree is merely reported [dark]
    by {!Simnet_exec.collect}, which silently voids the certified
    (ε, δ) floor the plan was disseminated with.  This module closes the
    loop in three stages:

    - {b detection} ({!Health}): a per-node view fed by the executor's
      dark-subtree and give-up signals, with hysteresis so one epoch of
      burst loss does not trigger surgery;
    - {b plan surgery} ({!surgery}): restrict the LP to the surviving
      nodes — same model shape, so PR-1 warm-start tokens from the
      undamaged solve still apply — re-solve through the PR-3 certified
      chain, and emit a repaired plan whose install cost covers only the
      changed nodes.  Orphaned coverage moves to live siblings exactly
      when the freed budget lets their edges activate;
    - {b degraded guarantees}: the repaired plan is re-certified on a
      window slice disjoint from the one that planned it, so every
      answer after a repair still carries an honest certified floor.
      Repairs whose degraded floor falls below the caller's threshold
      are {e refused} — the attempt is reported but never installed.

    {!create}/{!observe} package the three stages as a per-deployment
    controller driven once per epoch. *)

(** {1 Detection} *)

module Health : sig
  (** Hysteresis over per-epoch darkness reports.

      A node is {e confirmed dead} after [confirm_after] consecutive
      epochs dark, and cleared again after [clear_after] consecutive
      epochs alive — so a single burst-loss epoch (recoverable, and
      recovered by the ARQ sublayer most of the time) never triggers
      surgery, while a crashed node is confirmed within a bounded
      detection latency. *)

  type t

  val create : ?confirm_after:int -> ?clear_after:int -> n:int -> unit -> t
  (** [confirm_after] (default 2) and [clear_after] (default 2) are the
      hysteresis windows, both at least 1.  [n] is the node count. *)

  val observe : ?probed:int list -> t -> dark:int list -> unit
  (** Feed one epoch's dark set ({!Simnet_exec.result.dark}).  A node in
      [probed] (default: every node) but not in [dark] counts as
      observed alive; a node in neither yields no evidence and keeps
      its streaks — pass the executed plan's participants as [probed]
      when the collection no longer routes through excluded subtrees,
      or confirmed-dead nodes would read as silently recovered. *)

  val confirmed_dead : t -> int list
  (** Nodes currently confirmed dead, sorted ascending. *)

  val is_confirmed : t -> int -> bool

  val dark_streak : t -> int -> int
  (** Consecutive epochs the node has been dark (0 when alive). *)

  val epochs : t -> int
  (** Epochs observed so far. *)
end

(** {1 Plan surgery} *)

type repaired = {
  plan : Plan.t;  (** the repaired plan, masked to survivors *)
  guarantee : Guarantee.t;
      (** the degraded bound, certified on a window slice disjoint from
          the one that planned the repair (when the window splits) *)
  provenance : Robust_plan.provenance;
  dropped : int list;
      (** nodes that participated in the old plan but are dead (or cut
          off below a dead node) in the new one, sorted *)
  changed : int list;
      (** nodes whose bandwidth differs between old and new plan,
          sorted — the only nodes an install must touch *)
  delta_install_mj : float;
      (** install cost of the repair: one subplan unicast per {e live}
          changed node (dead nodes are unreachable and pay nothing);
          at most {!Plan.install_mj} of the repaired plan *)
  repair_s : float;  (** wall-clock spent in surgery (measurement only) *)
  basis : Lp.Model.basis option;
      (** warm-start token from the repair solve, for the next one *)
}

type refusal =
  | Floor_below_threshold of { floor : float; threshold : float }
      (** the degraded certified floor fell below [min_floor] *)
  | Uncertified
      (** the LP solve was not certified; a greedy repair is never
          worth an install *)

type outcome =
  | Unnecessary
      (** the dead-set change does not affect the installed plan: no
          newly-dead participant and no recovered node *)
  | Repaired of repaired
  | Refused of { reason : refusal; attempt : repaired option }
      (** the repair was computed but must not be installed; [attempt]
          carries it (with its honest bound) for callers that prefer a
          weak certified answer over none — absent when uncertified *)

val surgery :
  ?warm_start:Lp.Model.basis ->
  ?max_lp_iterations:int ->
  ?lp_deadline:float ->
  ?delta:float ->
  ?min_floor:float ->
  ?assumed_dead:int list ->
  Sensor.Topology.t ->
  Sensor.Cost.t ->
  Sensor.Mica2.t ->
  Sampling.Sample_set.t ->
  current:Plan.t ->
  dead:int list ->
  k:int ->
  budget:float ->
  outcome
(** One repair pass.  [dead] is the confirmed-dead set; [assumed_dead]
    (default []) is the set [current] was last planned against, so both
    degradation (new deaths) and restoration (recoveries) trigger
    surgery while an unchanged situation returns [Unnecessary].
    [delta] (default 1e-6) is the failure budget of the degraded bound;
    [min_floor] (default 0) refuses repairs whose certified lower bound
    falls below it.  Deterministic given its inputs (only [repair_s]
    carries wall-clock).
    @raise Invalid_argument if [dead] contains the root. *)

(** {1 Controller} *)

type controller
(** Detection, surgery and install policy packaged per deployment:
    feed it each epoch's dark set and it keeps the installed plan and
    its degraded bound current. *)

val create :
  ?confirm_after:int ->
  ?clear_after:int ->
  ?delta:float ->
  ?min_floor:float ->
  Sensor.Topology.t ->
  Sensor.Cost.t ->
  Sensor.Mica2.t ->
  initial:Plan.t ->
  ?guarantee:Guarantee.t ->
  k:int ->
  budget:float ->
  unit ->
  controller
(** [initial] is the plan currently installed (planned with everyone
    alive); [guarantee] its bound, if it shipped with one. *)

val observe :
  ?probed:int list -> controller -> Sampling.Sample_set.t -> dark:int list ->
  outcome
(** Record one epoch's dark set (optionally restricted to the [probed]
    nodes, see {!Health.observe}), run surgery when the confirmed-dead
    set's effect on the installed plan changed, and install the repair
    unless refused.  [samples] is the current sample window (used to
    plan and re-certify).  The controller keeps the LP+LF instance of
    the window's planning half while [samples] is the same value
    (physically), so a surgery on an unchanged window only patches the
    alive mask into it.  Warm-start tokens chain across repairs; a
    confirmed-dark root is ignored (an unreachable root means no query
    at all, not a repairable plan). *)

val plan : controller -> Plan.t
(** The currently installed plan. *)

val guarantee : controller -> Guarantee.t option
(** The installed plan's current certified bound ([None] only when the
    initial plan shipped without one and no repair has landed). *)

val health : controller -> Health.t

val dead : controller -> int list
(** The confirmed-dead set the installed plan was last repaired
    against, sorted. *)

val repairs : controller -> int
(** Repairs installed so far. *)

val refusals : controller -> int

val repair_energy_mj : controller -> float
(** Total install energy spent on repairs ([delta_install_mj] summed) —
    the "energy to recover" the chaos harness bounds. *)
