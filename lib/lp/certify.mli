(** Independent certification of LP solver results.

    The revised simplex ({!Revised}) maintains a factorized basis inverse
    that can drift numerically, and its claims carry no proof of their
    own.  This module re-checks a claimed result against nothing but the
    problem data — never the solver's internal state — so a caller can
    treat the solver as an untrusted component.

    All residuals are {e scaled} (backward-error style): a row residual is
    divided by [1 + |rhs_i| + sum_j |a_ij x_j|], a reduced-cost violation
    by [1 + |c_j| + sum_i |a_ij y_i|], and the duality gap by
    [1 + |primal| + |dual|].  This keeps verdicts meaningful on badly
    scaled problems (coefficients spanning [1e-8 .. 1e8]) where absolute
    tolerances would be either blind or paranoid. *)

type report = {
  certified : bool;
  primal_residual : float;  (** scaled [max_i |(Ax - b)_i|] *)
  bound_violation : float;  (** scaled worst bound violation of [x] *)
  dual_violation : float;
      (** scaled worst sign-condition violation of the reduced costs *)
  duality_gap : float;  (** scaled [|c'x - dual objective|] *)
  reasons : string list;
      (** empty when [certified]; otherwise one entry per failed check *)
}

val certify_optimal :
  ?feas_tol:float ->
  ?opt_tol:float ->
  Problem.t ->
  x:float array ->
  duals:float array ->
  report
(** Certify a claimed optimal pair: [x] primal-feasible, the reduced
    costs [c_j - y'a_j] dual-feasible with respect to which bound each
    [x_j] sits on, and the duality gap (primal objective minus the bound
    [b'y + sum_j min over the box of d_j x_j]) within tolerance.
    Defaults: [feas_tol = 1e-6], [opt_tol = 1e-6]. *)

val certify_feasible : ?feas_tol:float -> Problem.t -> x:float array -> report
(** Primal feasibility only ([Ax = b] and bounds), for a point that
    comes without duals ({!certify_unbounded} checks a ray's base point
    with it).  The dual fields of the report are zero. *)

val certify_infeasible : ?tol:float -> Problem.t -> farkas:float array -> report
(** Check a Farkas-style infeasibility certificate [y]: writing
    [z_j = y'a_j], every [z_j] that needs an infinite bound to cap
    [z_j x_j] must vanish, and
    [y'b - sum_j (z_j > 0 ? z_j u_j : z_j l_j)] must be strictly
    positive — which no feasible [x] can allow. *)

val certify_unbounded :
  ?tol:float -> ?x:float array -> Problem.t -> ray:float array -> report
(** Check an unbounded-direction certificate [d]: [‖Ad‖∞] small, the
    direction respects the bound structure ([d_j > 0] only where
    [u_j = infinity], [d_j < 0] only where [l_j = neg_infinity]) and the
    objective strictly improves along it ([c'd < 0] for the minimization
    form).  When [x] is supplied its feasibility is checked too (an
    improving ray only proves unboundedness from a feasible point). *)

val reject : string -> report
(** A report that certifies nothing, with the given reason — for results
    that carry no checkable claim (e.g. an iteration-limit status). *)
