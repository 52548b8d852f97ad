(** Right-hand-side ranging of one row on a simplex basis.

    Dual feasibility of a basis does not depend on the right-hand side,
    and its basic solution is affine in it: with [d = B⁻¹e_row], moving
    row [row]'s right-hand side from [β₀] to [β] moves the basic values
    from [x₀] to [x₀ + (β − β₀)·d] and leaves the duals alone.  One FTRAN
    for [d] and a ratio test over the basic variables' bounds therefore
    give the exact interval [\[lo, hi\]] of right-hand sides on which the
    basis stays primal feasible — and, when it was optimal at [β₀],
    optimal (textbook sensitivity analysis).

    {!affine} is a solution producer like [Revised.solve]: the point it
    builds is uncertified.  [Model.affine_certified] is its checked form,
    the only one a planner or server may hand on. *)

type t

val compute :
  cell:Revised.factor_cell -> Problem.t -> Revised.basis -> row:int -> t option
(** Range [row] of the problem on the basis [basis], at the problem's own
    right-hand side [β₀ = rhs.(row)].  The basis factors come from
    [cell] when they match ({!Revised.cell_factor}; an empty cell is
    filled, so the next warm start from the basis reuses them).  The
    basic solution is recomputed from the basis (nonbasic columns at the
    bound the token records, as a warm start places them) and the duals
    solve [Bᵀy = c_B].  [None] when the basis does not fit the problem,
    is singular, or its basic solution is infeasible at [β₀]. *)

val row : t -> int

val lo : t -> float
val hi : t -> float
(** The closed interval of right-hand sides on which every basic value
    stays within its bounds; [lo <= β₀ <= hi], either end possibly
    infinite. *)

val duals : t -> float array
(** [y] with [Bᵀy = c_B] (minimization form), the same at every
    right-hand side of the interval. *)

val affine : t -> budget:float -> float array
(** The primal point [x₀ + (budget − β₀)·d] over the problem's columns,
    where [β₀] is the right-hand side the basis was ranged at.
    Uncertified. *)
