(** The naive exact top-k algorithms of Section 2.

    NAIVE-k answers in one bottom-up pass: every node forwards the top
    [min k (subtree size)] values of its subtree, so messages are minimal
    but most transmitted values are wasted.  NAIVE-1 pipelines: a node
    pulls values from its children one at a time through a local heap, so
    transmitted values are minimal but every value costs a request/response
    message pair.  Both always return the exact answer.  NAIVE-k is
    {!Exec.collect} on the plan giving every node bandwidth
    [min k (subtree size)]; NAIVE-1 drives the {!Protocol} pull pipeline
    by recursion. *)

type outcome = Exec.outcome = {
  returned : (int * float) list;  (** exact top k, best first *)
  collection_mj : float;
  messages : int;
  values_sent : int;
}

val naive_k :
  Sensor.Topology.t -> Sensor.Cost.t -> k:int -> readings:float array -> outcome

val naive_one :
  Sensor.Topology.t -> Sensor.Cost.t -> k:int -> readings:float array -> outcome

val flood_trigger_mj : Sensor.Topology.t -> Sensor.Mica2.t -> float
(** Cost of waking the whole network with a recursive empty broadcast (the
    trigger phase of NAIVE-k, whose "plan" involves every node). *)
