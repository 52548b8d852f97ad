(** Glue between {!Setup} workloads and the planners/baselines: plan under
    a budget, execute on the held-out epochs, return the measured point. *)

val greedy : Setup.t -> budget:float -> Prospector.Evaluate.point

val lp_no_lf :
  ?lp_iterations:int -> Setup.t -> budget:float -> Prospector.Evaluate.point

val lp_lf :
  ?lp_iterations:int -> Setup.t -> budget:float -> Prospector.Evaluate.point
(** [lp_iterations] caps the LP solver's pivots (see
    {!Prospector.Robust_plan}); a crippled budget exercises the planner's
    greedy fallback while still returning a measured point. *)

val naive_k : Setup.t -> k:int -> Prospector.Evaluate.point
(** [k] may differ from the setup's query size: the paper varies the
    baselines' accuracy by shrinking how many of the top values they fetch
    ([k' <= k] gives accuracy [k'/k]). *)

val naive_one : Setup.t -> k:int -> Prospector.Evaluate.point

val oracle : Setup.t -> k:int -> Prospector.Evaluate.point

val oracle_proof : Setup.t -> Prospector.Evaluate.point

val exact :
  ?lp_iterations:int ->
  Setup.t ->
  budget:float ->
  Prospector.Evaluate.point * Prospector.Evaluate.point
(** Plan phase 1 with PROSPECTOR-PROOF under [budget], run the two-phase
    exact query; returns the per-phase measured points. *)

val partial_accuracy : Setup.t -> k_fetched:int -> float
(** Accuracy of an exact algorithm asked for only the top [k_fetched]
    values when the query wants the setup's [k]. *)

val naive_k_cost : Setup.t -> float
(** Mean per-run cost of NAIVE-k at the setup's own [k]: the natural upper
    anchor for budget sweeps. *)
