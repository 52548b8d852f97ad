(** Canonical query identities for the serving layer.

    Every admitted query is canonicalized to a fingerprint over
    (network, sample-window version, [k], budget, guarantee target).  Two
    queries with equal fingerprints are the {e same} query: they coalesce
    in flight and share a plan-cache entry.  The fingerprint minus the
    budget — the {!family_key} — identifies the set of queries whose LPs
    differ only in the budget row's right-hand side, which is the unit of
    budget-range plan validity and of warm-basis reuse.

    Budgets and guarantee targets enter the keys as raw bit patterns, so
    distinct targets never share a key.  The one hash, of the spanning
    tree, is explicit FNV-1a over the parent array: no [Hashtbl.hash], no
    dependence on in-memory layout, stable across runs and processes (R1
    determinism). *)

type t = private {
  network : int;  (** registered network id *)
  window : int;  (** the network's sample-window version when admitted *)
  k : int;
  budget_bits : int64;  (** IEEE-754 bits of the canonicalized budget *)
  guarantee_bits : (int64 * int64) option;
      (** IEEE-754 bits of the (ε, δ) target, unhashed; [None] when
          absent *)
  topo_hash : int64;  (** structural hash of the network's spanning tree *)
  samples : int;  (** window size — with [topo_hash] and [k], the LP shape *)
}

val make :
  network:int ->
  window:int ->
  k:int ->
  budget:float ->
  guarantee:(float * float) option ->
  topo_hash:int64 ->
  samples:int ->
  t
(** Canonicalize (negative zero budgets become [0.]).  The caller has
    already validated the query; this never raises. *)

val hash_parents : root:int -> int array -> int64
(** Structural hash of a spanning tree (root + parent array).  Equal trees
    hash equal whatever process built them, so tenants registering the
    same physical network share warm-basis pool buckets. *)

val exact_key : t -> string
(** The full identity, budget included — the plan-cache key. *)

val family_key : t -> string
(** The identity minus the budget — the budget-range validity family. *)

val shape_key : t -> string
(** (topo_hash, window size, k) — the LP-shape bucket of the warm-basis
    pool.  Deliberately excludes the window {e version}: a basis from an
    older window of the same shape is still a valid (and useful) warm
    start for the perturbed LP. *)

val pp : Format.formatter -> t -> unit
