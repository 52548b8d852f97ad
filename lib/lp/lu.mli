(** Sparse LU factorization of a basis matrix, for the revised simplex.

    The matrix is given column-wise; columns are indexed by "slot"
    [0 .. dim-1] and rows by [0 .. dim-1].  Factorization performs Gaussian
    elimination with a Markowitz-flavoured pivot order (column/row
    singletons first, then minimum fill-estimate with threshold pivoting),
    which keeps fill-in low on the slack-heavy, near-triangular bases that
    arise in the simplex method.

    The solves are hypersparse: they find the elimination steps a sparse
    right-hand side can reach and process only those, in the order a full
    sweep would, so their cost follows the nonzeros touched.  When the
    reach is a large share of the steps they sweep every step; both ways
    perform the same floating-point operations and give the same bits.

    A factor is immutable and may be shared between domains; {!Update}
    keeps its own copy of U for Forrest–Tomlin column replacements. *)

type t

exception Singular of int
(** Raised by {!factor} when no acceptable pivot exists at the given
    elimination step: the matrix is (numerically) singular. *)

val factor : dim:int -> Sparse_vec.t array -> t
(** [factor ~dim cols] factors the [dim] x [dim] matrix whose [p]-th column
    is [cols.(p)].
    @raise Singular if the matrix is singular.
    @raise Invalid_argument if [Array.length cols <> dim]. *)

val fill_nnz : t -> int
(** Total number of non-zeros stored in the L and U factors (a measure of
    fill-in). *)

(** {1 Sparse work vectors} *)

type vec = private {
  values : float array;  (** dense storage; zero outside the pattern *)
  index : int array;
      (** [index.(0 .. count-1)] is the pattern: every position that may
          hold a nonzero, each listed once *)
  mutable count : int;
  member : Bytes.t;  (** ['\001'] at the positions in the pattern *)
}
(** A vector in scatter form, reused across solves and cleared through
    its pattern. *)

val vec : int -> vec
(** The zero vector of the given dimension. *)

val push : vec -> int -> unit
(** Add a position to the pattern (no-op when already there).  Push before
    writing a nonzero into [values]. *)

val clear : vec -> unit
(** Zero the vector through its pattern. *)

val tidy : vec -> unit
(** Drop the pattern's zero entries and sort the rest ascending. *)

type scratch
(** Search space for the solves of one dimension, reusable across
    factorizations of that dimension. *)

val scratch : int -> scratch

val ftran : t -> scratch -> vec -> vec -> int
(** [ftran t s b x] solves [B x = b]: [b] is indexed by row, [x] by column
    slot.  [x] must be zero on entry and receives the result with its
    pattern (unordered).  [b] is consumed: it is zero on return.  Returns
    the number of elimination steps processed.
    @raise Invalid_argument on a dimension mismatch. *)

val btran : t -> scratch -> vec -> vec -> int
(** [btran t s c z] solves [B^T z = c]: [c] is indexed by column slot, [z]
    by row.  Same contract as {!ftran}. *)

val solve : t -> float array -> float array
(** [solve t b] returns [x] with [B x = b] ({!ftran} on dense arrays).
    [b] is not modified. *)

val solve_transpose : t -> float array -> float array
(** [solve_transpose t c] returns [y] with [B^T y = c].  [c] is not
    modified. *)

(** {1 Forrest–Tomlin updates} *)

module Update : sig
  type lu := t

  type t
  (** A factorization under column replacements: the factor's L, row etas
      R, and a private copy of its U (the factor itself is not changed).
      The solves run L, R, then U (FTRAN) and U{^T}, R{^T}, then L{^T}
      (BTRAN), with the factor's reach-or-sweep rule and the same
      bit-for-bit agreement between the two branches. *)

  val create : lu -> t
  (** The factor with no update applied yet.  Costs O(dim) for the copies
      of U's step arrays (its rows and columns are shared until an update
      replaces them). *)

  val ftran : t -> vec -> vec -> int
  (** As {!Lu.ftran}, through the updates.  Also saves the spike (the
      right-hand side after L and R) for the next {!replace}. *)

  val btran : t -> vec -> vec -> int
  (** As {!Lu.btran}, through the updates. *)

  val etas : t -> int
  (** Row etas the last {!ftran} or {!btran} applied (those that changed
      a value). *)

  val replace : t -> slot:int -> alpha:float -> bool
  (** [replace u ~slot ~alpha] replaces the basis column in [slot] by the
      column of the last {!ftran}, whose result held [alpha] at [slot].
      Returns [false], leaving the factorization as it was, when the
      stability test fails: the new diagonal is tiny, or disagrees with
      [alpha] times the replaced diagonal by more than a relative [1e-8].
      The caller then refactorizes.
      @raise Invalid_argument when no {!ftran} ran since the last call. *)

  val count : t -> int
  (** Updates applied. *)

  val fill_nnz : t -> int
  (** Nonzeros stored now in L, U and the row etas (a fresh factor's is
      {!Lu.fill_nnz}). *)
end
