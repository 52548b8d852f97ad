(** Execution of proof-carrying top-k plans (Section 4.3).

    Every node forwards the top [bandwidth] values of its subtree (so every
    edge needs bandwidth at least 1) and determines which of them it can
    {e prove} to be the true largest values of its subtree: a value [v] is
    proven at node [u] iff for every child [c], either [v] originates in
    [c]'s subtree and is proven by [c], or [c] proved some value ranking
    below [v], or [c] forwarded its entire subtree.  Lemma 1: the values
    proven by a node are exactly the top values of its subtree — the test
    suite checks this on random executions.

    This module drives {!Protocol.prove} over the tree in post-order; the
    simulated {!Simnet_protocols.proof_collect} runs the same step as
    message handlers.  The per-node states are retained because the mop-up
    phase of {!Exact} resumes from them. *)

type node_state = Protocol.kept = {
  retrieved : (int * float) list;
      (** everything the node saw: its reading + all values received,
          sorted by {!Exec.value_order} *)
  sent : (int * float) list;
      (** what it passed up (top [bandwidth]); at the root, the answer *)
  proven : (int * float) list;  (** prefix of [sent] proven by this node *)
  sent_all : bool;  (** [sent] is the node's entire subtree *)
}

type outcome = {
  result : (int * float) list;
      (** the root's answer: top [k] of everything it retrieved *)
  proven_count : int;  (** how many leading answer values are proven *)
  states : node_state array;
  collection_mj : float;
  messages : int;
  values_sent : int;
}

val run :
  Sensor.Topology.t ->
  Sensor.Cost.t ->
  Plan.t ->
  k:int ->
  readings:float array ->
  outcome
(** @raise Invalid_argument if some edge has zero bandwidth — a
    proof-carrying plan must visit every node. *)

val min_bandwidth_plan : Sensor.Topology.t -> Plan.t
(** The cheapest valid proof-carrying plan: bandwidth 1 everywhere. *)
