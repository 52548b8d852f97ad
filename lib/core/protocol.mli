(** The node logic of every collection protocol, written once.

    Each function here is what one mote computes from what it has received
    and kept; none of them knows how messages travel.  Two kinds of driver
    run them:
    - the analytic executors ({!Exec}, {!Proof_exec}, {!Exact}, {!Naive})
      call them synchronously over a lossless tree — post-order for the two
      collections, recursion for the mop-up and the NAIVE-1 pull — and
      charge {!Sensor.Cost} per message;
    - the event drivers ({!Simnet_exec}, {!Simnet_protocols}) call them
      from {!Simnet.Engine} handlers, where a message the sender gave up on
      is answered by its {!silence}.

    Both transports therefore compute the same answers by construction;
    what only the simulator measures is latency, loss and per-node
    energy. *)

type value = int * float
(** A reading tagged with its origin node. *)

val value_order : value -> value -> int
(** Larger value first, ties to the smaller node id. *)

val take_prefix : int -> 'a list -> 'a list
(** First [n] elements (the whole list when shorter). *)

val check_inputs :
  string -> Sensor.Topology.t -> k:int -> readings:float array -> unit
(** [check_inputs who topo ~k ~readings], called first by every executor
    entry point.
    @raise Invalid_argument ["who: readings length mismatch"] unless there
    is one reading per node, ["who: k must be positive"] if [k < 1]. *)

val check_every_edge : Sensor.Topology.t -> Plan.t -> string -> unit
(** @raise Invalid_argument with the given message if some non-root node
    has bandwidth 0 (a proof-carrying plan must visit every node). *)

(** {1 Messages} *)

type report = {
  values : value list;  (** best first *)
  proven : int;  (** length of the sender's proven prefix *)
  sent_all : bool;  (** [values] is the sender's whole subtree *)
}
(** What a node sends its parent at the end of a collection.  Approximate
    collections carry no proof: [proven = 0], [sent_all = false]. *)

type request = { c : int; lo : value option; hi : value option }
(** A mop-up range request: the top [c] values of the subtree lying
    strictly below [hi] and strictly above [lo] in {!value_order} ([None]:
    unbounded on that side). *)

type msg =
  | Trigger  (** wake the subtree for a collection *)
  | Report of report
  | Pull  (** NAIVE-1: send your next value *)
  | Pulled of value option  (** [None]: the subtree is drained *)
  | Range of request
  | Ranged of value list  (** answer to a [Range], best first *)

val values_carried : msg -> int
(** Readings in the message body, as {!Sensor.Cost.message_mj} counts
    them. *)

val payload_bytes : Sensor.Mica2.t -> msg -> int
(** Wire size of the body: the readings at [bytes_per_value] each, or a
    count and two bounds for a [Range].  A report's proven count and flag
    ride in the header (the paper's fixed per-message allowance). *)

val silence : msg -> msg option
(** The answer a sender assumes when it gives up on a request: an empty,
    unproven report, a drained pull, an empty range answer.  [None] for
    messages that expect no answer. *)

(** {1 Approximate collection} *)

val filter : own:value -> received:value list -> cap:int -> value list
(** Local filtering: the top [cap] of the node's reading and everything it
    received. *)

(** {1 Proof-carrying collection (Section 4.3)} *)

type kept = {
  retrieved : value list;
      (** the node's reading and all values received, best first *)
  sent : value list;  (** what it passed up: the top [cap] *)
  proven : value list;  (** prefix of [sent] proven by this node *)
  sent_all : bool;  (** [sent] is the node's entire subtree *)
}

val prove :
  own:value -> reports:(int * report) list -> cap:int -> subtree_size:int -> kept
(** Merge the reports of the node's children (tagged with the child they
    came from) with its own reading.  A value is proven iff every child
    certifies it: the value came from that child and was in its proven
    prefix, or the child proved a value ranking below it, or the child sent
    its whole subtree.  Lemma 1: the proven values are exactly the top
    values of the subtree. *)

val report_of : kept -> report

(** {1 Mop-up (Section 4.3)} *)

val root_request : k:int -> request
(** The root's own question: the top [k], unbounded. *)

val mop_up :
  kept ->
  request ->
  children:int array ->
  finished:(int -> bool) ->
  (int list * request) option
(** [None] when the node's phase-1 memory answers the request.  Otherwise
    the children to ask — those whose report did not carry their whole
    subtree ([finished]), in child order — and the narrowed request to ask
    them: nothing above the node's smallest proven value (it already knows
    it), nothing at or below its [c]-th known value in range (it already
    holds [c] better candidates). *)

val open_mop_up :
  kept -> k:int -> children:int array -> finished:(int -> bool) ->
  (int list * request) option
(** {!mop_up} of {!root_request} at the root, which asks its children only
    for the [k - |proven|] values it is missing. *)

val merge : kept -> request -> value list -> value list
(** The answer to a request: the top [c] of the node's known values in
    range and everything its children sent back, deduplicated by
    origin. *)

(** {1 NAIVE-1 pull pipeline (Section 2)} *)

type puller
(** A node's candidate heap: at most one value per source (the node itself
    and each non-drained child).  A popped child slot is refilled lazily,
    when the next pull arrives, so no value is fetched that the parent
    will not consume. *)

val puller : own:value -> children:int array -> puller

val to_ask : puller -> int list
(** The children owing the heap a value before the next pop (every child
    at first, then the source of the last pop unless it is drained). *)

val receive : puller -> src:int -> value option -> unit
(** A child's answer to a pull. *)

val pop : puller -> value option
(** The node's next largest value, once {!to_ask}'s children have
    answered; [None] when the subtree is drained. *)
