(** Priority queue of timestamped events for the discrete-event engine.

    Events with equal timestamps are delivered in insertion order (a
    monotone sequence number breaks ties), which keeps simulations
    deterministic.  The FIFO guarantee holds across arbitrary
    interleavings of [add] and [pop] — in particular for retransmission
    timers re-armed mid-drain at timestamps that collide with queued
    deliveries (pinned by regression tests).  The backing array shrinks as
    the queue drains, so a burst of events does not pin its payloads for
    the rest of a long simulation. *)

type 'a t

val create : unit -> 'a t

val is_empty : 'a t -> bool

val length : 'a t -> int

val add : 'a t -> time:float -> 'a -> unit
(** @raise Invalid_argument on a NaN time. *)

val pop : 'a t -> (float * 'a) option
(** Remove and return the earliest event. *)
