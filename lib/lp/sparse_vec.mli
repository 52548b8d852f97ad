(** Immutable sparse vectors indexed by [int], sorted by index.

    Used for the columns of constraint matrices.  Indices are strictly
    increasing and values are non-zero (entries below a drop tolerance are
    removed at construction). *)

type t = private {
  idx : int array;    (** strictly increasing indices *)
  value : float array; (** same length as [idx]; all non-zero *)
}

val empty : t

val drop_tol : float
(** [1e-12]: construction drops entries of this magnitude or less. *)

val nnz : t -> int
(** Number of stored entries. *)

val of_assoc : (int * float) list -> t
(** Build from an unsorted association list.  Duplicate indices are summed;
    entries with magnitude below [1e-12] are dropped.
    @raise Invalid_argument on a negative index. *)

val of_arrays : int array -> float array -> t
(** Adopt pre-sorted arrays (checked).  The arrays are not copied. *)

val get : t -> int -> float
(** [get v i] is the coefficient at index [i] (0. when absent);
    binary search, O(log nnz). *)

val dot_dense : t -> float array -> float
(** [dot_dense v d] is the inner product with the dense array [d]. *)

val axpy_dense : float -> t -> float array -> unit
(** [axpy_dense a v d] performs [d.(i) <- d.(i) +. a *. v.(i)] for each
    stored entry. *)

val iter : (int -> float -> unit) -> t -> unit

val fold : ('a -> int -> float -> 'a) -> 'a -> t -> 'a

val max_abs : t -> float
(** Largest entry magnitude, 0. for the empty vector. *)

val scale : float -> t -> t
