(** Certified (ε, δ) error guarantees for approximate top-k plans.

    The paper's planners are best-effort: a plan's expected accuracy is
    whatever the sample window suggests, with no stated confidence.  This
    module turns the sample window into a {e certified} statistical claim
    about a fixed plan [P] evaluated over a fresh sample set of [m] i.i.d.
    epochs drawn from the (unknown) value field:

    {v with probability >= 1 - delta over the draw of the m samples,
       E[top-k accuracy of P]  >=  certified_lower v}

    equivalently "the expected missed top-k mass is at most
    [1 - certified_lower]".  The slack [eps] between the window's
    empirical accuracy and [certified_lower] is the minimum over three
    one-sided tail-bound families, each given an equal [delta / 3] share
    of the failure budget (so the minimum is valid by a union bound):

    - {b Hoeffding}: per-sample accuracies are i.i.d. in [0, 1], so
      [sqrt (ln (3/delta) / 2m)] always applies.  (The DKW inequality
      gives the same [1/sqrt m] rate with a worse constant, so it is
      dominated and not computed.)
    - {b Empirical Bernstein} (Maurer–Pontil): variance-adaptive; wins
      for large windows whose per-sample accuracy is nearly constant.
    - {b Per-node union}: expected accuracy decomposes over nodes as
      [(1/k) sum_i q_i] with [q_i] the probability that node [i] is both
      in the sample's true top k and returned by the plan.  Only the
      plan's participants can contribute, so a per-node empirical
      Bernstein bound at level [delta / (3 |participants|)] composed by a
      union bound over that candidate set certifies the sum.  Wins for
      concentrated plans (few participants, each hit almost always).

    The PR-3 LP certificate feeds the bound instead of being discarded:
    when the plan came from a certified LP solve, the certified duality
    gap is converted to accuracy units and added to [eps] ([lp_eps]), so
    the guarantee covers solver numerics end-to-end — and because
    certification bounds the gap near machine precision, the certificate
    {e tightens} the claim relative to the conservative alternative of
    not trusting the solve at all.

    Soundness requires the certification sample set to be independent of
    the plan (a plan optimized on the same window overfits it);
    {!Robust_plan.plan_with_guarantee} enforces this with a plan/certify
    window split.  [compute] itself is agnostic and documents the caller's
    obligation. *)

type family = Hoeffding | Empirical_bernstein | Per_node_union

type t = {
  eps : float;  (** total certified slack, [stat_eps + lp_eps] *)
  delta : float;  (** failure probability of the whole claim *)
  samples : int;  (** [m], size of the certification window *)
  k : int;
  empirical_accuracy : float;  (** mean per-sample accuracy on the window *)
  certified_lower : float;
      (** [max 0 (empirical_accuracy - eps)]: the certified lower bound on
          the plan's expected accuracy *)
  stat_eps : float;  (** statistical component (winning family) *)
  lp_eps : float;  (** certified LP duality-gap slack, in accuracy units *)
  family : family;  (** which bound family achieved [stat_eps] *)
  candidates : int;
      (** size of the union-bound candidate set (plan participants) *)
  lp_certified : bool;
      (** whether a certified LP solution backs the plan ([lp_eps] is only
          meaningful when true) *)
}

(** {1 Tail-bound primitives}

    Exposed so the test suite can check the metamorphic properties
    (monotone in [m], [delta] and [k]) directly.  All raise
    [Invalid_argument] on [m < 1], [delta] outside (0, 1), negative
    variance, or non-positive [candidates]/[k]. *)

val hoeffding_slack : m:int -> delta:float -> float
(** One-sided Hoeffding slack for a mean of [m] i.i.d. [0, 1] variables:
    [sqrt (ln (1/delta) / (2 m))]. *)

val bernstein_slack : m:int -> variance:float -> delta:float -> float
(** One-sided empirical-Bernstein slack (Maurer–Pontil) for [m] i.i.d.
    [0, 1] variables with sample variance [variance]:
    [sqrt (2 v ln (2/delta) / m) + 7 ln (2/delta) / (3 (m - 1))].
    [infinity] when [m < 2] (the sample variance needs two points). *)

val union_slack : m:int -> candidates:int -> k:int -> delta:float -> float
(** Worst-case per-node union-bound slack: [candidates] per-node Hoeffding
    bounds at level [delta / candidates], aggregated through the [1/k]
    accuracy normalization: [(candidates / k) * hoeffding (delta /
    candidates)].  The slack actually achieved by {!compute} is at most
    this (it caps each node's term by its empirical hit rate and uses
    variance-adaptive per-node bounds). *)

(** {1 Computing and checking guarantees} *)

val compute :
  ?delta:float ->
  ?report:Lp.Certify.report ->
  ?objective:float ->
  Sensor.Topology.t ->
  Sensor.Cost.t ->
  Plan.t ->
  k:int ->
  Sampling.Sample_set.t ->
  t
(** Certify the plan against the given sample window.  [delta] defaults to
    1e-6.  Pass the {!Lp.Certify.report} that admitted the plan's LP
    solution together with the LP [objective] to fold the certified
    duality gap into the bound ([lp_eps]); without them [lp_eps] is 0 and
    [lp_certified] false.  The bound is exact only when the window is
    independent of the plan (see the module preamble).
    @raise Invalid_argument if [delta] is outside (0, 1) or [k < 1]. *)

val meets : t -> eps:float -> delta:float -> bool
(** Does this guarantee certify the target "expected accuracy at least
    [1 - eps], with failure probability at most [delta]"? *)

val holds_against : t -> observed_accuracy:float -> bool
(** [observed_accuracy >= certified_lower] — what the bound-violation
    harness checks against ground truth. *)

val validate : t -> (unit, string) result
(** Machine-check the record's internal consistency: field ranges, the
    [eps = stat_eps + lp_eps] and [certified_lower] identities, and that
    [stat_eps] does not beat the Hoeffding member of its own minimum
    (no guarantee can claim less statistical slack than its tightest
    admissible family).  [Error reason] names the first failed check. *)

val equal : t -> t -> bool

val family_to_string : family -> string

val to_json : t -> Obs.Json.t
(** Schema ["guarantee/1"]: a flat object holding every field, suitable
    for provenance records and CI artifacts. *)

val of_json : Obs.Json.t -> t option
