(** Reliability sublayer: per-link ARQ state for the engine.

    When fault injection is active, the engine sends every application
    message as a sequenced data frame and expects a per-frame ACK from the
    receiver.  This module holds the bookkeeping both endpoints need, per
    {e directed} link:

    - the sender side allocates consecutive sequence numbers, remembers
      unacknowledged frames ([pending]) for timeout-based retransmission
      with capped exponential backoff, and marks the link dead once a frame
      exhausts its attempts;
    - the receiver side suppresses duplicates (a retransmitted frame whose
      original arrived but whose ACK was lost) and restores FIFO order: a
      frame is released to the application only once every earlier sequence
      number on that link has been released, so retry backoff can never
      reorder a node's sends.

    ACK frames carry no payload bytes and are charged no energy: the MICA2
    per-message cost [cm] already covers the reliable-protocol handshake
    (see {!Sensor.Mica2}), which keeps a lossless run's measured energy
    identical to the analytic executors'.  Retransmissions, by contrast,
    pay the full unicast cost again — that surcharge is exactly what the
    loss ablation measures.

    The module is pure bookkeeping: timers, energy and the event loop stay
    in {!Engine}. *)

type policy = {
  rto_scale : float;
      (** initial retransmission timeout, as a multiple of the frame's
          round-trip estimate (data + ACK transmission delays) *)
  backoff : float;  (** timeout multiplier per failed attempt, >= 1 *)
  rto_max : float;  (** timeout ceiling, seconds *)
  max_attempts : int;
      (** total transmissions (first send included) before the link is
          declared dead and the message abandoned *)
}

val default_policy : policy
(** [{ rto_scale = 4.; backoff = 2.; rto_max = 2.; max_attempts = 12 }] —
    at a 20% frame-drop rate a message is abandoned with probability
    [0.2^12 < 1e-8], so recoverable loss virtually never degrades an
    answer, while a crashed subtree is detected within a few seconds of
    simulated time. *)

val timeout : policy -> rto0:float -> attempt:int -> float
(** Timeout armed after transmission number [attempt] (1-based):
    [min rto_max (rto_scale * rto0 * backoff^(attempt-1))].
    @raise Invalid_argument if [attempt < 1]. *)

val expected_cost_multiplier : drop:float -> sender_share:float -> float
(** Expected energy of one reliably delivered message, relative to its
    lossless cost, under independent per-frame drop probability [drop] for
    both data and ACK frames and an unbounded retry budget: the sender
    retransmits until a round succeeds end-to-end (expected [1/(1-p)^2]
    attempts), the receiver pays for every data frame that arrives
    (expected [1/(1-p)]).  [sender_share] is the sender's fraction of a
    unicast's cost, as split by the engine's energy ledgers. *)

(** {1 Per-link state} *)

type 'msg pending = {
  msg : 'msg;
  bytes : int;
  rto0 : float;  (** round-trip estimate the timeouts scale from *)
  mutable attempts : int;
  mutable recv_mj : float;
      (** energy the receiver is charged per arriving copy; updated when a
          broadcast frame is retransmitted as a unicast *)
}

type 'msg t

val create : n:int -> 'msg t
(** Fresh state for an [n]-node network. *)

val alloc_seq : 'msg t -> src:int -> dst:int -> int
(** Next sequence number on the directed link [src -> dst]. *)

val register : 'msg t -> src:int -> dst:int -> seq:int -> 'msg pending -> unit

val find : 'msg t -> src:int -> dst:int -> seq:int -> 'msg pending option

val ack : 'msg t -> src:int -> dst:int -> seq:int -> unit
(** Retire a pending frame (its retransmission timer, if still queued,
    becomes a stale no-op). *)

val mark_dead : 'msg t -> src:int -> dst:int -> unit

val is_dead : 'msg t -> src:int -> dst:int -> bool

val dead_links : 'msg t -> (int * int) list
(** Links declared dead so far, in declaration order. *)

val on_data :
  'msg t ->
  src:int ->
  dst:int ->
  seq:int ->
  payload:'msg * float ->
  [ `Duplicate | `Buffered | `Deliver of ('msg * float) list ]
(** Receiver-side processing of an arriving data frame.  [`Deliver]
    returns the frames now releasable in FIFO order (the arriving one,
    plus any buffered successors it unblocks); [`Buffered] means an
    earlier frame is still missing; [`Duplicate] means this sequence
    number was already received (the caller should still ACK it — the
    sender evidently missed the first ACK). *)
