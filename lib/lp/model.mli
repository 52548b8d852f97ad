(** High-level LP model builder.

    Variables carry optional bounds and objective coefficients; constraints
    are linear expressions compared to a constant.  [solve] lowers the model
    to a {!Problem.t} and runs the sparse {!Revised} simplex, the only
    solver here; {!solve_certified} re-checks its claim with {!Certify}. *)

type t

type var
(** An opaque variable handle, valid only for the model that created it. *)

type sense = Le | Ge | Eq

type direction = Minimize | Maximize

type status = Revised.status =
  | Optimal
  | Infeasible
  | Unbounded
  | Iteration_limit

val status_equal : status -> status -> bool
(** Structural equality on {!status}.  Use this (not polymorphic [=])
    when neither side is a literal; it stays correct if the variant
    grows payload-carrying cases. *)

type basis
(** Opaque warm-start token: the simplex basis a solve ended with.  It can
    be passed to a later {!solve} of a model with the same variable and
    constraint counts (the same model re-solved, or a freshly built model of
    identical shape) to start the simplex from that basis instead of from
    the model's {!start} (or, with none, the all-slack basis).
    Incompatible tokens are silently ignored.

    A token also carries the LU factors of its basis once a solve has
    computed them (or handed them on from a 0-pivot solve): a later warm
    start whose basis columns are bit for bit the same reuses them
    instead of factoring again, with an identical result.  The factors
    are immutable, so tokens may be shared between domains. *)

val basis_shape : basis -> int * int
(** The variable and constraint counts of the model the token came from —
    the shape a model must have for the token to apply, read without
    holding a model. *)

val basis_compatible : t -> basis -> bool
(** Whether the token fits this model.  This is the single
    basis-compatibility predicate: {!solve} consults it before using a
    [?warm_start], the certified solve ([Robust_plan.solve], and
    through it every planner: [Replan], [Repair], the serving layer) drops
    incompatible tokens with it. *)

type solution = {
  status : status;
  objective : float;  (** in the model's direction (not negated) *)
  values : float array;  (** indexed by {!var_index} *)
  stats : Revised.stats option;
      (** present when the revised solver ran (not for an
          {!affine_certified} point) *)
  row_duals : float array option;
      (** shadow prices, one per constraint in insertion order: the
          marginal change of the objective (in the model's direction) per
          unit increase of that constraint's right-hand side *)
  basis : basis option;  (** warm-start token for a subsequent solve *)
}

val create : ?direction:direction -> unit -> t
(** A fresh empty model; default direction is [Minimize]. *)

val direction : t -> direction

val add_var :
  t -> ?lower:float -> ?upper:float -> ?obj:float -> string -> var
(** [add_var t name] adds a variable.  Defaults: [lower = 0.],
    [upper = infinity], [obj = 0.].  Names are for diagnostics only and need
    not be unique. *)

val var_index : var -> int
(** Position of the variable in [solution.values]. *)

val var_name : t -> var -> string

val set_obj : t -> var -> float -> unit
(** Overwrite the objective coefficient of a variable. *)

val add_constraint : t -> (float * var) list -> sense -> float -> unit
(** [add_constraint t terms sense rhs] adds [sum coeff*var  <sense>  rhs].
    Duplicate variables in [terms] are summed. *)

val add_le : t -> (float * var) list -> float -> unit
val add_ge : t -> (float * var) list -> float -> unit
val add_eq : t -> (float * var) list -> float -> unit

val n_vars : t -> int

val n_constraints : t -> int
(** Constraints added so far; the next one added gets this index. *)

(** {1 Crash start} *)

type start = {
  basic : (int * var) list;
      (** [(i, v)]: variable [v] is basic in constraint [i] (insertion
          index) *)
  at_upper : var list;  (** nonbasic variables at their upper bound *)
}
(** A starting basis stated in the model's terms: every constraint not
    named in [basic] has its slack basic, and every other nonbasic
    variable sits at its lower bound.  A builder that knows its LP's
    structure states one (a crash basis) so that a solve given no
    warm-start token begins near its optimum instead of at the all-slack
    basis. *)

val set_start : t -> start -> unit
(** Record the basis {!to_problem} lowers into the problem's [start], the
    one {!solve} starts from when given no usable token.  Constraints
    and variables added afterwards keep their slacks basic and sit at
    their lower bounds. *)

val lower_start : t -> start -> Problem.basis
(** [start] lowered as {!to_problem} lowers the model's own: for a copy
    of the lowering whose bounds call for another start.
    @raise Invalid_argument for an unknown constraint or variable, or two
    variables basic in one constraint.  (A variable basic in two
    constraints is refused by {!Problem.validate}.) *)

val var_of_index : t -> int -> var
(** Inverse of {!var_index}.  @raise Invalid_argument if out of range. *)

val to_problem : t -> Problem.t
(** The model lowered to computational standard form: variable [v] maps to
    column [v], and constraint [i] (insertion order) owns slack column
    [n_vars + i]; the model's {!start}, if set, becomes the problem's
    [start] through {!lower_start}.  This is exactly the problem {!solve}
    hands to the revised solver, so external checkers ({!Certify}) can
    re-verify a solution against it.  Duplicate terms of a row are summed and
    entries of magnitude at most {!Sparse_vec.drop_tol} dropped, exactly
    as {!Sparse_vec.of_assoc} does.
    @raise Invalid_argument naming the row and the variable when a
    coefficient is not finite. *)

val solve :
  ?max_iterations:int ->
  ?deadline:float ->
  ?bland_after:int ->
  ?warm_start:basis ->
  t ->
  solution
(** Optimize the model.  The model itself is not modified and may be solved
    again (e.g. after adding constraints).  [deadline] is a wall-clock
    budget in seconds for the revised solver (best effort; exceeded budgets
    yield [Iteration_limit]).  [warm_start] feeds a previous solution's
    basis token back to the revised solver; it is ignored when the shapes
    differ.  Without a usable token the solve starts from the model's
    {!start} when one is set (falling back to the all-slack basis should
    that start fail), else from the all-slack basis.  [bland_after] tunes
    the degeneracy threshold for the Bland's-rule fallback (tests only). *)

val solve_certified :
  ?max_iterations:int ->
  ?deadline:float ->
  ?bland_after:int ->
  ?warm_start:basis ->
  ?problem:Problem.t ->
  t ->
  solution * Certify.report
(** Solve with the revised simplex and independently re-check
    the claim with {!Certify} against the lowered problem data: an optimal
    pair is checked for primal/dual feasibility and duality gap, an
    infeasible claim for a valid Farkas certificate, an unbounded claim for
    a valid improving ray.  [Iteration_limit] results are always rejected
    (nothing to certify).  The report says whether the solution deserves
    trust; the solution itself is the same one {!solve} would return.

    [problem] replaces the model's lowering: it must be {!to_problem} of
    this model with at most its right-hand sides and column bounds
    changed (a parametric re-solve that patches a budget row or pins a
    variable without rebuilding the model).  The solve and the
    certification both use it.
    @raise Invalid_argument when its dimensions do not match the model. *)

(** {1 Budget segments}

    One certified optimal basis answers a whole interval of one row's
    right-hand side (see {!Ranging}): a {!segment} is a warm-start token
    with that interval, and {!affine_certified} serves any right-hand
    side in it with no simplex run — no factorization and no pivot, one
    affine point and its certification. *)

type segment

val range : ?problem:Problem.t -> t -> basis -> row:int -> segment option
(** Range constraint [row] on the token's basis at [problem]'s
    right-hand side (default: the model's lowering; [problem] is as for
    {!solve_certified}).  Uses and fills the token's factor cell, so a
    later warm start from the token does not factor again.  [None] when
    the token does not fit, its basis is singular, or its basic solution
    is infeasible there. *)

val segment_bounds : segment -> float * float
(** The closed interval of the row's right-hand side on which the
    segment's basis stays primal feasible. *)

val segment_basis : segment -> basis
(** The segment's warm-start token. *)

val affine_certified :
  ?problem:Problem.t ->
  t ->
  segment ->
  (solution * Certify.report, Certify.report) result
(** The segment's affine point at [problem]'s right-hand side of the
    ranged row ([problem] as for {!solve_certified}), with the segment's
    duals, checked by {!Certify.certify_optimal} against [problem]:
    [Ok] an optimal solution (no [stats]: no simplex ran; [basis] is the
    segment's token) and its report, or [Error] the failing report.  A
    right-hand side outside {!segment_bounds} fails unless within the
    certifier's tolerance.  Emits an [lp.affine] [Solve] span. *)

val value : solution -> var -> float
(** Value of a variable in a solution (0. unless [status = Optimal]). *)
