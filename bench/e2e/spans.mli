(** In-memory spans recorded from outside the program.

    The benchmark wraps its calls into each layer in {!span}; every span
    records its name, start, duration, the span that was open when it
    started (its parent) and the operation it belongs to.  Spans stay in
    memory until the run ends and are then exported as {!Obs.Trace.event}
    JSON lines, each carrying [span_id], [parent_id] (0 for an operation's
    root) and [op_id] attributes, so [bin/obs_report] can read the file.

    A disabled recorder runs the wrapped function and records nothing. *)

type span = {
  id : int;  (** from 1, in opening order *)
  parent : int;  (** 0 when the span is an operation's root *)
  op : int;
  kind : Obs.Trace.kind;
  name : string;
  start_s : float;
  dur_s : float;
}

type t

val create : enabled:bool -> t

val enabled : t -> bool

val op : t -> Obs.Trace.kind -> string -> (unit -> 'a) -> 'a
(** Run one operation under a new root span (and a new operation id). *)

val last_op : t -> int
(** The id of the most recently started operation (0 before the first). *)

val span : t -> Obs.Trace.kind -> string -> (unit -> 'a) -> 'a
(** Run a call under a span whose parent is the innermost open span. *)

val spans : t -> span list
(** Closed spans, in opening order. *)

val self_times : span list -> (span * float) list
(** Each span with its self time: its duration minus the part of its
    interval that its children's intervals cover. *)

val self_by_name : span list -> (string * float) list
(** Summed self time per name, sorted by name. *)

val unattributed : total:float -> parts:float -> float
(** [1 - parts / total]: the share of an end-to-end time that no layer
    span accounts for.  @raise Invalid_argument unless [total > 0]. *)

val write_jsonl : string -> span list -> unit
