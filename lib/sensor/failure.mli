(** Transient link-failure statistics (Section 4.4).

    The paper's reliable protocol re-routes a message around a failed edge;
    the planner copes with frequent transient failures by inflating each
    edge's cost by (failure probability x extra re-routing cost), so no
    topology recomputation is needed.  This module holds the per-edge
    statistics and produces the inflation factors consumed by
    {!Cost.with_failures}. *)

type t = {
  fail_prob : float array;
      (** per edge (indexed by the child node), in [0, 1] *)
  reroute_factor : float array;
      (** multiplicative extra cost paid when the edge fails, e.g. 1.5
          means a re-routed message costs 1.5x more *)
}

val none : n:int -> t
(** No failures. *)

val uniform : Rng.t -> n:int -> max_prob:float -> max_factor:float -> t
(** Independent per-edge probabilities in [0, max_prob] and re-route
    factors in [1, max_factor]. *)

val expected_multiplier : t -> int -> float
(** [expected_multiplier t i] is the expected cost multiplier of the edge
    above node [i]: [1 + p_i * (f_i - 1)]. *)
