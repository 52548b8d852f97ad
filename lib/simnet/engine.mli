(** Discrete-event simulator of a mote network organized as a spanning tree.

    Nodes exchange messages only with tree neighbours (parent and
    children), matching the paper's collection/distribution phases.  The
    engine charges every transmission to per-node energy ledgers using the
    {!Sensor.Mica2} model — the same constants the planners use — so
    analytic plan costs can be validated against simulated executions.

    Two failure regimes are available, matching the two sides of the
    paper's Section 4.4:

    - the {e planning-side} model ([?failure], a {!Sensor.Failure}):
      transient failures make the reliable protocol re-route, inflating
      cost and latency but never dropping a message;
    - the {e execution-side} model ([?fault], a {!Fault}): frames are
      actually lost (Bernoulli drops, loss bursts, node outages).  The
      engine then runs every [send]/[broadcast_children]/[multicast] over
      a reliability sublayer — per-frame ACKs, timeout-based
      retransmission with capped exponential backoff ([?policy]),
      duplicate suppression and per-link FIFO restoration via sequence
      numbers (see {!Reliable}) — transparently to the message handlers.
      A message whose retry budget is exhausted is abandoned: its link is
      declared dead and the sender's give-up handler ({!on_give_up}) is
      told, so protocols can degrade gracefully instead of hanging.  In a
      lossless run the sublayer charges exactly the legacy energy (ACKs
      ride in the Mica2 per-message cost [cm]); every retransmission pays
      the full unicast cost again.  When [?fault] is supplied, [?failure]
      re-routing is not applied — the two models answer different
      questions and are never active together.

    The engine is polymorphic in the message type; the [payload_bytes]
    function supplied at creation determines the wire size of each
    message. *)

type 'msg t

type 'msg api = {
  self : int;  (** the node running the handler *)
  time : unit -> float;  (** current simulation time, seconds *)
  send : dst:int -> 'msg -> unit;
      (** unicast to the parent or a child.
          @raise Invalid_argument if [dst] is not a tree neighbour *)
  broadcast_children : 'msg -> unit;
      (** one local broadcast heard by all children *)
  multicast : dsts:int list -> 'msg -> unit;
      (** one local broadcast heard only by the listed children (the
          others are assumed asleep and pay nothing).
          @raise Invalid_argument if some destination is not a child *)
  set_timer : delay:float -> (unit -> unit) -> unit;
}

val create :
  Sensor.Topology.t ->
  Sensor.Mica2.t ->
  ?failure:Sensor.Failure.t * Rng.t ->
  ?fault:Fault.t * Rng.t ->
  ?policy:Reliable.policy ->
  payload_bytes:('msg -> int) ->
  unit ->
  'msg t
(** @raise Invalid_argument if the fault model's size differs from the
    topology's. *)

val on_message : 'msg t -> node:int -> ('msg api -> src:int -> 'msg -> unit) -> unit
(** Install the message handler of a node (replacing any previous one).
    Messages to a node without a handler are counted but dropped. *)

val on_give_up : 'msg t -> node:int -> ('msg api -> dst:int -> 'msg -> unit) -> unit
(** Install the give-up handler of a node: called (as an ordinary event,
    never re-entrantly) each time the reliability sublayer abandons a
    message this node sent, with the unreachable destination and the
    original message.  Only ever invoked when a [?fault] model is
    active. *)

val inject : 'msg t -> node:int -> ?at:float -> 'msg -> unit
(** Deliver a message to [node] from outside the network (e.g. the query
    station kicking off execution at the root); no radio energy is
    charged and no loss is applied (the station link is wired). *)

val run : ?max_events:int -> 'msg t -> float
(** Process events until the queue drains; returns the final simulation
    time.  Stale retransmission timers (frames acknowledged before their
    timeout) are discarded without advancing the clock.  @raise Failure
    if [max_events] (default 10_000_000) is exceeded, which indicates a
    protocol that never quiesces.  Each completed run (one collection
    epoch in the paper's terms) emits an [Epoch] span (per-round
    message/byte/energy deltas) when an {!Obs.Trace} sink is installed. *)

val energy_of : 'msg t -> int -> float
(** Total energy charged to one node so far, mJ. *)

val total_energy : 'msg t -> float

val unicasts_sent : 'msg t -> int
(** Unicast transmissions, retransmissions included. *)

val broadcasts_sent : 'msg t -> int

val reroutes : 'msg t -> int
(** Number of transmissions that hit a transient failure and paid the
    re-routing premium (planning-side [?failure] model only). *)

val retransmissions_sent : 'msg t -> int
(** Data frames re-sent by the reliability sublayer. *)

val dropped_frames : 'msg t -> int
(** Frames (data and ACK) lost to the fault model, outages included. *)

val duplicate_frames : 'msg t -> int
(** Data frames that arrived more than once (their first ACK was lost)
    and were suppressed by the sequence-number filter. *)

val gave_up : 'msg t -> int
(** Messages abandoned after exhausting their retry budget. *)

val dead_links : 'msg t -> (int * int) list
(** Directed links declared dead by the reliability sublayer, in
    declaration order. *)
