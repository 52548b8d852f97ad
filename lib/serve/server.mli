(** Multi-tenant top-k query serving.

    The paper's planners are batch jobs: one PROSPECTOR run plans one
    query on one network.  This module turns them into a service: tenants
    {!register} networks (topology + cost model + sample window), then
    submit streams of top-k queries against them; the server admits
    queries in deterministic batches, canonicalizes each to a
    {!Fingerprint}, coalesces duplicates in flight, serves repeats from a
    {!Plan_cache}, serves a budget that an LP instance's certified
    budget segments ({!Segment_set}) already cover from an affine point,
    warm-starts other misses from the instance's nearest segment or
    guarantee-ladder basis, and fans the remaining work across
    OCaml 5 domains.

    {b Certification discipline}: an uncertified plan is never served.
    Every {!Served} response carries the PR-3 certification report that
    admitted its LP solution — including responses served from the cache,
    whose report was computed at exactly the served budget — and, when the
    query requested an (ε, δ) target, a PR-7 {!Prospector.Guarantee.t} meeting it.
    Greedy fallbacks, failed certifications and unattainable guarantee
    targets yield {!Refused}, never a silently weaker answer.

    {b Warm state}: an LP+LF program's rows and columns follow its
    window's ones, so a basis is only a warm start for the LP it was
    computed on.  The server keeps, per (network, window version, [k])
    instance, up to [pool_capacity] budget segments — certified optimal
    full-window bases, each with the exact budget interval on which it
    stays optimal, found by ranging the budget row on the worker that
    solved it (dual feasibility does not depend on the budget and the
    basic solution is affine in it) — and up to [pool_capacity] of the
    guarantee ladder's planning-window bases, both in a
    {!Segment_set} (least recently used evicted).  Both go with the instance
    when the window is refreshed.  Within a batch, a
    query that would start cold on an instance that already has a solve
    in flight waits for that solve to commit and then starts from its
    basis, so a refreshed window or a new [k] costs one cold solve per
    batch; a plain query that would start warm waits the same way, since
    the segment that solve leaves may contain its budget.

    {b Determinism}: all admission, cache, pool, coalescing and deferral
    decisions happen on the coordinating domain between fan-out barriers,
    and every
    solve is a pure function of coordinator-chosen inputs (instance,
    budget, warm basis; which domain first fills a token's factor cell is
    timing, but a reused factor is bit for bit a fresh one).  The LP+LF instance of each (network, window version, [k]) is
    built and lowered once, on the coordinator, when a query first needs
    it; every solve for that key re-solves it at its own budget
    ({!Prospector.Lp_lf.solve}), and warm tokens carry their basis
    factors between solves.  Worker domains only decide {e when} work
    runs, never {e what} it computes, so identical query streams produce
    bit-identical responses and hit/miss traces whatever [domains] is.  Tasks are
    claimed from a fixed-order queue through one atomic cursor — a
    deterministic work-stealing order: the claim sequence is the admission
    order even though the claimant identities are timing-dependent.

    {b Telemetry}: the server keeps its own always-on tallies ({!stats})
    and emits one [Serve] trace span per admission batch (with its task
    and pass counts).  The trace sink
    is single-domain by design, so while one is installed the server runs
    its solves inline (effective [domains] = 1, as each [serve.batch] span
    reports); parallel fan-out is for the untraced serving
    configuration. *)

type config = {
  cache_capacity : int;
      (** exact plan-cache entries; 0 disables the cache *)
  pool_capacity : int;
      (** budget segments, and guarantee-ladder bases, kept per instance
          (each bounded by it); 0 keeps no warm state: every miss is
          solved cold. *)
  batch : int;  (** admission batch size *)
  domains : int;
      (** worker domains for miss fan-out (>= 1); 1 while an [Obs.Trace]
          sink is installed *)
  max_lp_iterations : int option;  (** per-solve pivot cap (tests) *)
  lp_deadline : float option;  (** per-solve wall-clock budget, seconds *)
}

val default_config : config
(** cache 256, pool 8, batch 32, domains 1, no solver caps. *)

type t

val create : ?config:config -> unit -> t

val register :
  t -> Sensor.Topology.t -> Sensor.Cost.t -> Sampling.Sample_set.t -> int
(** Register a tenant network and its sample window; returns the network
    id queries name.  The window's raw values are re-ranked per queried
    [k], so tenants may ask any [1 <= k <= n] regardless of the [k] the
    window was drawn at; each re-ranking gets its own LP+LF instance. *)

val update_window : t -> network:int -> Sampling.Sample_set.t -> unit
(** Install a fresh sample window and bump the network's window version:
    cached plans for older windows age out of the LRU naturally (their
    fingerprints can no longer be formed).  The network's LP+LF
    instances are dropped with their warm bases, which belong to the old
    window's LPs; the next query per [k] builds the new window's
    instance and solves it cold. *)

type query = {
  network : int;
  k : int;
  budget : float;
  guarantee : (float * float) option;  (** optional (ε, δ) target *)
}

val query : ?guarantee:float * float -> network:int -> k:int -> float -> query
(** [query ~network ~k budget] names a top-k query against a registered
    network. *)

(** How a served plan was obtained. *)
type source =
  | Cache_hit  (** exact fingerprint: no model build, no solve *)
  | Range_hit
      (** budget inside one of the instance's budget segments: the
          segment's affine point at this budget, certified optimal
          against the LP patched at it — no model build, no
          factorization, no pivot *)
  | Pool_warm
      (** miss warm-started from a basis of the same instance: the basis
          of the segment nearest to the budget (also when a segment's
          affine point failed certification: then that segment's basis),
          whose solve leaves a new segment; for a guarantee query, the
          ladder's first rung starts from the ladder pool's basis solved
          at the nearest budget *)
  | Cold  (** miss solved from scratch *)

val source_to_string : source -> string

type response = {
  plan : Prospector.Plan.t;
  objective : float;  (** LP objective (expected covered ones) *)
  certify : Lp.Certify.report;
      (** the optimality certificate of the LP solution the plan rounds
          (always present: uncertified is refused) *)
  guarantee : Prospector.Guarantee.t option;
      (** present iff the query requested a target; always meets it *)
  source : source;
  coalesced : bool;
      (** served by riding an identical in-flight query's solve *)
  solve_ms : float;  (** this query's own solve time; 0 when not solved *)
  budget : float;  (** the budget the plan is certified at (the query's) *)
}

type outcome = Served of response | Refused of string

val run : t -> query array -> outcome array
(** Serve a stream: split into admission batches; per batch, decide, fan
    out and commit in passes until no query is deferred.
    [outcomes.(i)] answers [queries.(i)].  Never raises on solver failure
    or bad queries — both are {!Refused}. *)

type stats = {
  queries : int;
  batches : int;
  cache_hits : int;
  range_hits : int;
  pool_hits : int;
  cold_misses : int;
  coalesced : int;
  refused : int;
  solves : int;  (** LP plans actually computed (tasks executed) *)
  evictions : int;  (** plan-cache evictions *)
}

val stats : t -> stats
(** Always-on tallies since creation. *)

val trace : t -> (string * string) list
(** One [(exact fingerprint key, tag)] pair per admitted query, in
    admission order — the determinism witness the tests compare across
    domain counts.  Tags: ["cache"], ["range"], ["pool"], ["cold"],
    ["coalesced"], ["refused"]. *)

val clear_trace : t -> unit

type warm_state = {
  segments : (float * float) list;
      (** the budget intervals of the instance's segments, in budget
          order; at most [pool_capacity] *)
  ladder_budgets : float list;
      (** the budgets the ladder pool's bases were solved at (the chosen
          rung's, for a ladder that escalated), ascending *)
}

val warm_state : t -> network:int -> k:int -> warm_state option
(** The warm state of the current window's instance for [k], if a query
    has built it. *)

val arena_stats : t -> (int * float) array
(** Per-domain-slot solver-arena rollup: (solves executed, busy seconds),
    index 0 being the coordinator's inline slot. *)
