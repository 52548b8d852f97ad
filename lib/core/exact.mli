(** PROSPECTOR-EXACT: the two-phase exact top-k algorithm (Section 4.3).

    Phase 1 executes a proof-carrying plan ({!Proof_exec}).  If the root
    proves all k answer values, the query is done.  Otherwise a mop-up
    phase retrieves the missing values: range requests [(count, lo, hi)]
    are pushed down the tree, and every node services as much of a request
    as it can from the values it retrieved and proved during phase 1,
    forwarding a narrowed request to its children only when its own
    knowledge cannot complete the answer.  Children that already forwarded
    their whole subtree in phase 1 are never re-contacted.

    The answer is always the exact top k — the plan (and the samples
    behind it) only affect cost, never correctness.  Each node's part is
    {!Protocol.mop_up} and {!Protocol.merge}, run here by recursion and in
    {!Simnet_protocols.exact} as message handlers. *)

type outcome = {
  answer : (int * float) list;  (** the exact top k, best first *)
  proven_after_phase1 : int;
  phase1_mj : float;
  phase2_mj : float;
  phase1_messages : int;
  phase2_messages : int;
  phase2_values : int;  (** readings transmitted during mop-up *)
}

val total_mj : outcome -> float

val run :
  Sensor.Topology.t ->
  Sensor.Cost.t ->
  Sensor.Mica2.t ->
  Plan.t ->
  k:int ->
  readings:float array ->
  outcome
(** [Plan] is the phase-1 proof plan (bandwidth >= 1 on every edge). *)
