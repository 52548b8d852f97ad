(** Approximate-plan execution on the {!Simnet} discrete-event engine.

    The collection of {!Exec.collect} run as messages between mote
    processes: the root broadcasts a trigger down the participating
    subtree, leaves respond, and each inner node forwards its local filter
    ({!Protocol.filter}, the same step {!Exec.collect} takes) once all
    participating children have reported.  Loss-free, its energy is the
    analytic collection energy plus the trigger broadcasts, which validates
    the planners' cost model; it also measures latency and per-node energy,
    which the analytic path cannot provide.

    With a [?fault] model the run goes over the engine's ACK/retransmission
    sublayer: recoverable frame loss changes nothing but energy and
    latency, while a child that stays unreachable past the retry budget has
    its whole subtree reported in [dark] and the collection completes
    without it instead of hanging. *)

type result = {
  returned : (int * float) list;
  total_mj : float;  (** trigger + collection energy, summed over nodes *)
  per_node_mj : float array;
  latency_s : float;  (** simulated time until the root has its answer *)
  unicasts : int;  (** retransmissions included *)
  reroutes : int;
  retransmissions : int;  (** frames re-sent by the reliability sublayer *)
  dark : int list;
      (** nodes cut off by dead links (sorted, deduplicated); empty when
          every loss was recovered *)
  give_ups : (int * float) list;
      (** one entry per give-up event, in event order: the unreachable
          endpoint and the simulated time the sender abandoned it.  The
          same endpoint can appear once per frame that gave up on it. *)
  gave_up_frames : int;
      (** the engine's own give-up counter ({!Simnet.Engine.gave_up});
          fast-fails on links already declared dead are not counted
          there, but each directed link carries at most one frame per
          collection, so here it always equals [List.length give_ups] *)
}

val collect :
  Sensor.Topology.t ->
  Sensor.Mica2.t ->
  ?failure:Sensor.Failure.t * Rng.t ->
  ?fault:Simnet.Fault.t * Rng.t ->
  ?policy:Simnet.Reliable.policy ->
  Plan.t ->
  k:int ->
  readings:float array ->
  result

(** {1 The event driver}

    Shared with {!Simnet_protocols}: every simulated protocol is a set of
    handlers calling {!Protocol} node logic. *)

type run = {
  engine : Protocol.msg Simnet.Engine.t;
  latency_s : float;  (** simulated time until the network went quiet *)
  dark : int list;  (** sorted, deduplicated *)
  give_ups : (int * float) list;  (** as in {!result} *)
}

val simulate :
  Sensor.Topology.t ->
  Sensor.Mica2.t ->
  failure:(Sensor.Failure.t * Rng.t) option ->
  fault:(Simnet.Fault.t * Rng.t) option ->
  policy:Simnet.Reliable.policy option ->
  start:Protocol.msg ->
  (Protocol.msg Simnet.Engine.api -> int -> src:int -> Protocol.msg -> unit) ->
  run
(** Install [handle api node ~src msg] on every node, deliver [start] to the
    root from the query station, and run the engine until it quiesces.
    Each give-up is recorded, darkens the subtree under the unreachable
    endpoint, and is handed back to the sender as the request's
    {!Protocol.silence}, so a silent child counts as an empty, unproven
    report. *)
