(** Fingerprint-keyed plan cache with deterministic LRU eviction.

    One served payload per exact fingerprint ({!Fingerprint.exact_key},
    budget included).  Re-serving one is free — no model build, no solve,
    no re-certification (the payload already carries the PR-3 report
    computed at exactly this budget).

    Eviction is deterministic: the least-recently-used entry goes first,
    ties broken towards the smaller insertion sequence number.  "Recently"
    is a logical clock ticked by cache operations, not wall time. *)

type 'a t

val create : capacity:int -> 'a t
(** [capacity] bounds the entries; 0 disables the cache (every operation
    is a no-op / miss). *)

val find : 'a t -> key:string -> 'a option
(** Exact lookup; refreshes the entry's LRU stamp. *)

val add : 'a t -> key:string -> 'a -> unit
(** Insert or replace; evicts the LRU entry when over capacity. *)

val size : 'a t -> int
(** Entries currently held. *)

val evictions : 'a t -> int
(** Entries evicted since creation. *)
