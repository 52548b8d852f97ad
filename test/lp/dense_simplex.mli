(** Dense two-phase tableau simplex over non-negative variables.

    A deliberately independent reference implementation that the LP tests
    compare the sparse {!Lp.Revised} solver against; no library code uses
    it.  All variables are implicitly constrained to [x >= 0]; upper
    bounds must be materialized as explicit rows by the caller.  Bland's
    rule is used throughout, so the method always terminates. *)

type sense = Le | Ge | Eq

type status = Lp.Model.status =
  | Optimal
  | Infeasible
  | Unbounded
  | Iteration_limit

type result = {
  status : status;
  x : float array;  (** variable values at the optimum *)
  objective : float;
}

val solve :
  ?maximize:bool ->
  ?max_pivots:int ->
  obj:float array ->
  constraints:(float array * sense * float) array ->
  unit ->
  result
(** [solve ~obj ~constraints ()] optimizes [obj . x] subject to the given
    dense rows and [x >= 0].  Default is minimization.  [max_pivots]
    (default unlimited) caps the total pivots across both phases; when
    exhausted the result is [Iteration_limit] with a zero [x] — primarily
    for exercising solver-failure paths in tests. *)

val solve_model :
  ?max_pivots:int -> Lp.Model.t -> Lp.Model.solution * Lp.Certify.report
(** {!Lp.Model.to_problem} of the model, lowered to dense rows over
    [x >= 0] and solved with {!solve}: values (zero unless [Optimal]) and
    objective in the model's terms, no stats, duals or basis.  Having no
    duals, the report checks an optimum for primal feasibility only and
    rejects every other status.
    @raise Invalid_argument when the lowering or {!Lp.Problem.validate}
    refuses the model. *)
