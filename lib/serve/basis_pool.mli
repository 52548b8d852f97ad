(** Warm-basis pool of one LP, with nearest-budget lookup.

    Generalizes what [Replan] does for successive replans of one query to
    every guarantee query the server plans on one instance: each
    certified ladder solve deposits its final simplex basis under its
    budget, and a later guarantee query on the same instance at another
    budget starts its first rung from the pooled basis whose budget is
    nearest to its own instead of from scratch.

    A pool belongs to exactly one LP: the server keeps one per LP+LF
    instance (network, sample-window version, [k]) for the guarantee
    ladder's planning window, and drops it with the instance when the
    window is refreshed.  An LP+LF program's rows
    and columns follow the window's ones, so a basis of another window is
    at best a token of coincidentally equal shape for a different LP; the
    pool never holds one.

    The pool only ever hands out solver {e hints}: the LP layer's
    [Lp.Model.basis_compatible] predicate (applied inside
    [Robust_plan.solve] on the way to the solver) remains the authority on
    whether a token fits, and the PR-3 certifier independently checks
    whatever solution the warm start leads to.  A wrong pool entry can
    cost pivots, never correctness.  All eviction and tie-breaking is
    deterministic. *)

type t

val create : capacity:int -> t
(** [capacity] bounds the entries; 0 disables the pool ({!insert} is a
    no-op, {!lookup} always misses). *)

val insert : t -> budget:float -> Lp.Model.basis -> unit
(** Deposit a basis.  An entry with the same budget is replaced (newest
    wins); a full pool evicts the oldest entry (smallest insertion
    sequence number). *)

val lookup : t -> budget:float -> Lp.Model.basis option
(** The pooled basis whose budget is nearest to [budget] (ties towards the
    lower budget, then the older entry — fully deterministic). *)

val size : t -> int
(** Entries held. *)
