(** Typed trace events (spans) with an installable in-memory sink and a
    JSON-lines exporter.

    Instrumented code calls {!emit} unconditionally; with no sink
    installed — the default — the call costs one load and a branch.
    Install a sink with {!install} around a run, then export its events
    with {!to_file} (JSON-lines, re-readable with {!read_jsonl}), or
    aggregate them with {!Report}. *)

(** The instrumented span kinds: LP solves, certification passes, planner
    decisions, whole simulated collection rounds, individual link-layer
    retransmissions, statistical (ε, δ) guarantee computations,
    self-healing plan-surgery passes, and serving-layer admission
    batches. *)
type kind =
  | Solve | Certify | Plan | Epoch | Retransmit | Guarantee | Repair | Serve

type attr = Int of int | Float of float | Str of string | Bool of bool

type event = {
  kind : kind;
  name : string;  (** instrumentation point, e.g. ["lp.revised"] *)
  start_s : float;  (** wall-clock start (Unix seconds); 0 when untimed *)
  dur_s : float;  (** wall-clock duration; 0 for point events *)
  attrs : (string * attr) list;
}

type sink

val create : unit -> sink

val install : sink option -> unit
(** Set or clear the global sink receiving subsequent {!emit} calls. *)

val active : unit -> bool
(** Whether a sink is installed — check before computing costly attrs. *)

val now : unit -> float
(** [Unix.gettimeofday], for span timestamps. *)

val emit :
  kind -> name:string -> ?start_s:float -> ?dur_s:float ->
  (string * attr) list -> unit
(** Record one event in the installed sink; no-op without one. *)

val events : sink -> event list
(** In emission order. *)

val length : sink -> int

val clear : sink -> unit

(** {1 Export / import} *)

val kind_to_string : kind -> string

val kind_of_string : string -> kind option

val compare_kind : kind -> kind -> int
(** Total order on kinds (declaration order); lets aggregators and
    exporters sort without polymorphic compare. *)

val event_to_json : event -> Json.t

val event_of_json : Json.t -> event option

val write_jsonl : out_channel -> event list -> unit

val to_file : string -> event list -> unit
(** JSON-lines: one event object per line. *)

val read_jsonl : string -> (event list, string) result
(** Parse a JSON-lines trace file back; blank lines are skipped.  Whole
    floats come back as [Int] attrs (JSON has one number type); use
    {!number} to consume numeric attrs uniformly. *)

(** {1 Attr access} *)

val find_attr : event -> string -> attr option

val number : event -> string -> float option
(** Numeric attr as float, whether stored as [Int] or [Float]. *)
