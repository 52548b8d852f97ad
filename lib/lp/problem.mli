(** Linear programs in computational standard form.

    A problem is [minimize c'x  subject to  A x = rhs,  lower <= x <= upper],
    where the columns of [A] include any slack columns (the {!Model} builder
    adds one slack per inequality row).  Bounds may be infinite.  A problem
    may carry a [start]: the basis a solve given no warm-start token
    begins from. *)

type basis = {
  vars : int array;
      (** [vars.(i)] is the column basic in row [i], or [-1] when that
          row's internal artificial variable is basic (pinned at zero) *)
  at_upper : bool array;
      (** length [ncols]; for nonbasic columns, whether the column sits at
          its upper bound (entries for basic columns are meaningless) *)
}
(** A simplex basis: the solver's warm-start token ({!Revised.basis}) and
    a problem's [start]. *)

type shared
(** What the copies of one problem share: the checks its matrix passed
    and the solver-side forms of that matrix, computed once.  A copy made
    with [{ p with rhs; lower; upper }] patches the vectors and keeps the
    matrix, so it reuses them; an entry is only used for the very [cols]
    and [basis_hint] arrays it was computed from.  Copies keep the
    [start] too.  The matrix must not be mutated in place once a problem
    has been validated. *)

val fresh_shared : unit -> shared
(** An empty cell, for a problem built with a new matrix. *)

type t = {
  nrows : int;
  ncols : int;
  cols : Sparse_vec.t array;  (** [ncols] columns of [A], each of height [nrows] *)
  obj : float array;          (** minimization objective, length [ncols] *)
  lower : float array;        (** lower bounds, may be [neg_infinity] *)
  upper : float array;        (** upper bounds, may be [infinity] *)
  rhs : float array;          (** right-hand side, length [nrows] *)
  basis_hint : int array option;
      (** Optional: [hint.(i)] is a column that is a pure unit vector on row
          [i] (e.g. that row's slack), used to warm-start the simplex with an
          identity basis.  [-1] entries mean "no hint for this row". *)
  start : basis option;
      (** Optional: the basis {!Revised.solve} starts from when it is
          given no usable warm-start token (a crash basis built from the
          problem's structure).  The solver adopts it through its
          warm-start path and, should that attempt fail (a singular
          basis, an unrepairable start), solves from the all-slack basis
          instead.  [None]: always the all-slack basis. *)
  shared : shared;
}

val validate : t -> unit
(** Check structural invariants (array lengths, column heights, bound
    order, hint columns are unit vectors, the start's lengths, column
    range and distinct basic columns) and numerical sanity: every
    matrix coefficient, objective coefficient and rhs entry must be
    finite, bounds must not be NaN, no [lower > upper], no [lower = +inf]
    or [upper = -inf].  Empty columns (variables in no constraint) are
    legal.
    @raise Invalid_argument with a descriptive message when an invariant
    is violated.

    The checks run in a fixed order and the first failing one is
    reported: dimensions and array lengths, the columns, bounds and
    objective, the rhs, the hint, the start.  The columns and the hint
    are checked once per matrix (see {!shared}), and so is the start the
    matrix was first checked with; bounds, objective, rhs and any other
    start on every call.  A start is checked, never dropped: a bad one
    raises here rather than sending the solve to the all-slack basis. *)

type matrix
(** A validated matrix in the forms the revised simplex works on. *)

val matrix : t -> matrix
(** {!validate}, returning the problem's matrix: computed on the first
    call for these columns, shared afterwards. *)

val with_identity : matrix -> Sparse_vec.t array
(** The [ncols] columns followed by one unit column per row (the
    artificial columns of the simplex).  Shared: do not mutate. *)

type rows = private {
  row_start : int array;
      (** row [i]'s entries are at [\[row_start.(i), row_start.(i+1))] *)
  row_col : int array;  (** their columns, ascending within a row *)
  row_val : float array;
}
(** The [ncols] columns stored by rows. *)

val rows : matrix -> rows
(** The row-wise copy, built on first use and shared afterwards. *)

val nnz : t -> int
(** Total non-zeros in the constraint matrix. *)

val compatible_basis : t -> int array -> bool
(** [compatible_basis t vars] checks that a warm-start basis description is
    structurally usable for this problem: one entry per row, each either
    [-1] (meaning "use that row's artificial") or a distinct column index in
    [0, ncols).  Nonsingularity is {e not} checked here; the solver falls
    back to a cold start if factorization fails. *)

val activity : t -> float array -> float array
(** [activity t x] computes [A x] (length [nrows]). *)

val objective_value : t -> float array -> float

val max_constraint_violation : t -> float array -> float
(** Largest violation of [A x = rhs] or of a variable bound by the point
    [x]; 0. for a feasible point. *)
