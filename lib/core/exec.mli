(** Execution of approximate plans over one epoch of readings.

    [collect] walks the tree bottom-up exactly as the collection phase
    would run in the network: each participating node merges its own
    reading with its children's lists and forwards the top [bandwidth]
    values.  Energy is charged per actual message with the same constants
    the planners optimize against, so measured cost is directly comparable
    to the planning budget.  The per-node step is {!Protocol.filter}, which
    {!Simnet_exec} also runs, as message handlers on the simulator. *)

type outcome = {
  returned : (int * float) list;
      (** the root's answer: (origin node, value), best first, at most [k] *)
  collection_mj : float;  (** energy of the collection phase *)
  messages : int;  (** unicasts in the collection phase *)
  values_sent : int;  (** total readings transmitted *)
}

val take_prefix : int -> 'a list -> 'a list
(** First [n] elements (the whole list when shorter) — the "top b" step
    shared by every executor. *)

val value_order : (int * float) -> (int * float) -> int
(** Total order used everywhere to rank readings: larger value first, ties
    to the smaller node id.  Having one global total order makes top-k sets
    and proof comparisons deterministic. *)

val collect :
  Sensor.Topology.t ->
  Sensor.Cost.t ->
  Plan.t ->
  k:int ->
  readings:float array ->
  outcome

val true_top_k : k:int -> float array -> (int * float) list
(** Ground truth under {!value_order}. *)

val accuracy : k:int -> readings:float array -> (int * float) list -> float
(** Fraction of the true top k present in an answer. *)
