(** PROSPECTOR-GREEDY (Section 3).

    Builds an approximate plan incrementally: repeatedly pick the
    not-yet-chosen node that appears most often in the sample top-k sets
    (largest column sum) and add it to the plan, as long as the static cost
    of the expanded plan stays within the energy budget.  Topology-blind:
    each chosen value travels all the way to the root, paying per-message
    costs on every edge of its path that the plan was not already using. *)

val plan :
  Sensor.Topology.t ->
  Sensor.Cost.t ->
  Sampling.Sample_set.t ->
  budget:float ->
  Plan.t
(** Stops at the first candidate whose addition would exceed [budget]
    (matching the paper's description).  Nodes that never appear in any
    sample's top k are never added. *)

val fallback :
  Sensor.Topology.t ->
  Sensor.Cost.t ->
  colsum:int array ->
  budget:float ->
  bool array * float
(** The node selection behind {!plan}, parameterized directly by column
    sums (how often each node appears in sample answers; the root is
    always chosen), together with the covered-ones count it achieves on
    the samples (the chosen non-root nodes' column sums): the LP
    planners' answer when no LP solution can be certified, scored in the
    same currency as their LP objective. *)

val check_budget : string -> float -> unit
(** [check_budget who budget] refuses a negative or NaN budget with an
    [Invalid_argument] naming the entry point [who]. *)

(** {1 Path-cost accumulator} *)

type path_cost
(** Static cost of a growing selection whose values each travel to the
    root: the per-value cost of the whole path, plus a per-message cost on
    every edge the selection was not already using. *)

val path_cost : Sensor.Topology.t -> Sensor.Cost.t -> path_cost
(** An empty selection, costing 0. *)

val commit : path_cost -> int -> unit
(** Add a node to the selection whatever it costs. *)

val try_add : path_cost -> budget:float -> int -> bool
(** Add the node if the selection's cost stays within [budget] (up to
    1e-9); reports whether it was added. *)
