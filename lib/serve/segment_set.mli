(** The warm state of one LP, keyed by budget intervals, with containing
    and nearest lookup.

    The server keeps two per LP+LF instance (network, sample-window
    version, [k]):

    - the instance's {e segments}: each certified plain solve leaves a
      basis and the exact budget interval on which that basis is optimal
      ({!Prospector.Lp_lf.segment}); a later query whose budget one of
      them contains is served from its affine point (certified, no
      simplex run), any other is warm-started from the basis of the
      nearest one;
    - the guarantee ladder's {e pool}: each certified ladder solve leaves
      its final basis as the zero-width interval [\[b, b\]] at the budget
      [b] that basis was solved at (the chosen rung's, when the ladder
      escalated), and a later guarantee query starts its first rung from
      the basis nearest to its budget.

    A set belongs to exactly one LP and is dropped with its instance when
    the window is refreshed: an LP+LF program's rows and columns follow
    the window's ones, so a basis of another window is at best a token of
    coincidentally equal shape for a different LP.  Whatever a set hands
    out is checked again downstream ([Lp.Model.basis_compatible] for a
    warm token, [Certify.certify_optimal] for an affine point and for
    whatever a warm start leads to), so a wrong entry can cost pivots,
    never correctness.

    A set holds at most [capacity] entries; a full set evicts its least
    recently used entry (a logical clock ticked by lookups and inserts),
    so every decision is deterministic. *)

type 'a t

val create : capacity:int -> 'a t
(** [capacity] bounds the entries; 0 disables the set ({!insert} is a
    no-op, {!lookup} finds nothing). *)

type 'a found =
  | Containing of 'a
      (** an entry whose closed interval holds the budget (the lowest
          such, then the older) *)
  | Nearest of 'a
      (** no entry holds the budget; this one's interval is nearest to
          it (ties towards the lower interval, then the older entry) *)
  | Empty

val lookup : 'a t -> budget:float -> 'a found
(** Find an entry for [budget] and mark it used. *)

val insert : 'a t -> lo:float -> hi:float -> 'a -> unit
(** Add an entry for the closed interval [\[lo, hi\]].  Entries whose
    interval lies within the new one are dropped first (they answer
    nothing the new one does not; at equal intervals the newest wins);
    then, if the set is full, the least recently used entry is
    evicted. *)

val size : 'a t -> int
(** Entries held. *)

val bounds : 'a t -> (float * float) list
(** The held entries' intervals, in budget order. *)
