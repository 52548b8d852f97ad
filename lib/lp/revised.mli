(** Revised simplex method with bounded variables.

    Solves a {!Problem.t} (minimization over [A x = rhs], [l <= x <= u])
    using the revised simplex method: the basis inverse is maintained as a
    sparse {!Lu} factorization refreshed periodically, with product-form eta
    updates in between.  Infeasible starting bases are handled by an
    artificial-variable phase 1.

    Pricing is partial (candidate-list) pricing with Devex-style reference
    weights: between full scans only a small candidate list of nonbasic
    columns has its reduced costs computed, kept current across pivots by a
    per-pivot update along the pivot row; optimality is only declared after
    a rotating scan has examined every column.  Sustained degeneracy
    triggers an automatic switch to Bland's rule (full lowest-index scan),
    which guarantees termination.

    A previous solve's {!basis} can be fed back via [?basis] to warm-start
    a related problem (same dimensions, perturbed rhs/bounds/objective).
    With no usable [?basis], a problem's {!Problem.start} (a crash basis
    its builder derived from the LP's structure) takes the same path;
    with neither, the solve starts cold from the all-slack basis.
    The basis is refactorized and its basic values recomputed.  A start
    that is primal feasible goes straight to phase 2.  One that is not,
    but is dual feasible once each boxed nonbasic column with a
    wrong-signed reduced cost moves to its other bound (the usual state
    after an rhs or bound change, and the state of a crash basis whose
    budget row is violated), runs a bounded dual simplex (dual Devex row
    choice, Harris ratio test) until no basic variable is out of bounds,
    then phase 2 as the optimality check.  Otherwise, or when the dual
    simplex meets a dual-unbounded row or numerical trouble, the
    violations of the warm basic variables are repaired by a
    bound-relaxation phase 1.  Any failure there (singular basis,
    unrepairable violation) falls back to the all-slack cold path
    transparently; the result's {!stats} then count the warm attempt's
    work with the cold solve's.  The [lp.revised] trace span's [start]
    attribute names the path that produced the result: ["warm"] (the
    token), ["crash"] (the problem's start) or ["cold"] (the all-slack
    basis, including after a failed attempt). *)

type status = Optimal | Infeasible | Unbounded | Iteration_limit

type stats = {
  iterations : int;           (** total simplex pivots (both phases) *)
  phase1_iterations : int;
  refactorizations : int;
  degenerate_pivots : int;
  bound_flips : int;
  drift_refactorizations : int;
      (** refactorizations forced by an FTRAN residual spike (the factorized
          basis no longer reproduces the entering column to tolerance) *)
  growth_refactorizations : int;
      (** refactorizations forced by eta-file growth outpacing the LU fill *)
  ftran_steps : int;
      (** LU elimination steps processed by the FTRANs of entering
          columns (L and U together; a full sweep counts [2 * nrows]) *)
  ftran_etas : int;  (** etas those FTRANs applied (nonzero pivot entry) *)
  btran_steps : int;
      (** LU steps processed by the BTRANs (pivot rows, duals) *)
  btran_etas : int;  (** etas those BTRANs visited *)
  lu_nnz : int;  (** LU nonzeros, summed over every factorization *)
  dual_iterations : int;
      (** dual simplex pivots of a warm start (included in [iterations]) *)
  dual_fallbacks : int;
      (** 1 when a warm start left the dual simplex for the
          bound-relaxation phase 1 (dual unbounded row, numerical trouble
          or the pivot cap), else 0 *)
}

type basis = Problem.basis = {
  vars : int array;
      (** [vars.(i)] is the column basic in row [i], or [-1] when that
          row's internal artificial variable is basic (pinned at zero) *)
  at_upper : bool array;
      (** length [ncols]; for nonbasic columns, whether the column sits at
          its upper bound (entries for basic columns are meaningless) *)
}
(** A snapshot of the final simplex basis, usable to warm-start a later
    solve of a problem with the same dimensions. *)

type result = {
  status : status;
  x : float array;
      (** primal values for the problem's columns (length [ncols]);
          meaningful when [status = Optimal] *)
  objective : float;  (** objective value of [x] *)
  duals : float array;
      (** row dual values [y] with [B^T y = c_B] at the final basis *)
  basis : basis;  (** final basis, for warm-starting a related solve *)
  stats : stats;
  farkas : float array option;
      (** when [status = Infeasible]: a Farkas-style certificate [y]
          (length [nrows]) checkable with {!Certify.certify_infeasible} *)
  ray : float array option;
      (** when [status = Unbounded]: an improving direction [d] (length
          [ncols]) checkable with {!Certify.certify_unbounded} *)
}

val solve :
  ?max_iterations:int ->
  ?deadline:float ->
  ?feas_tol:float ->
  ?opt_tol:float ->
  ?refactor_interval:int ->
  ?bland_after:int ->
  ?basis:basis ->
  Problem.t ->
  result
(** Solve the problem.  Defaults: [max_iterations = 200_000],
    [feas_tol = 1e-7], [opt_tol = 1e-7], [refactor_interval = 128],
    [bland_after = 2000] (consecutive degenerate pivots tolerated before
    switching to Bland's rule; lower it only to exercise the fallback in
    tests).  [deadline] is a wall-clock budget in seconds: once exceeded
    the solve stops at the next pivot boundary with
    [status = Iteration_limit] (best effort — the check is amortized, so a
    slow pivot can overrun slightly).  [basis] supplies a warm-start basis
    from a previous solve; it is ignored (the problem's start, else the
    all-slack basis) when structurally incompatible, and abandoned for
    the all-slack basis transparently when singular or unrepairable.
    @raise Invalid_argument when the problem fails {!Problem.validate},
    a bad [start] included. *)

(** {1 Reusing a basis factorization} *)

type factor_cell
(** A once-filled cell for the LU factors of one basis, with the basis
    columns they were computed from.  The factors are immutable, so a
    cell may be shared between solves on several domains. *)

val solve_factored :
  ?max_iterations:int ->
  ?deadline:float ->
  ?feas_tol:float ->
  ?opt_tol:float ->
  ?refactor_interval:int ->
  ?bland_after:int ->
  ?basis:basis ->
  ?cell:factor_cell ->
  Problem.t ->
  result * factor_cell
(** {!solve}, with [cell] the factor cell that travels with [basis].  A
    warm start whose basis columns are bit for bit the ones the cell was
    filled from reuses its factors instead of factoring; otherwise it
    factors and fills the cell if it is still empty.  Either way the
    solve performs the same operations and returns the same result as
    {!solve}.  The returned cell belongs to the result's basis: it is
    filled when the final factors carry no update (a 0-pivot solve, or a
    refactorization as the last step), and empty otherwise.  The
    [lp.revised] trace span's [factor_reused] attribute says whether the
    cell's factors were used. *)

val cell_factor : factor_cell -> Sparse_vec.t array -> Lu.t
(** [cell_factor cell bcols]: the cell's factors when they were computed
    from exactly these basis columns (bit for bit), else a fresh
    factorization of [bcols], which also fills the cell if it is still
    empty — the same rule a warm start from the cell's basis applies, so
    that warm start reuses what this call factored.
    @raise Lu.Singular when the columns are singular. *)
