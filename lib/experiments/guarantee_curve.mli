(** The certified (ε, δ) accuracy bound as a function of energy budget.

    One fixed instance, a budget ladder, two confidence levels.  Each rung
    plans on one sample window and certifies on a disjoint one — the same
    discipline {!Prospector.Robust_plan.plan_with_guarantee} enforces — so
    the reported ε is honest certified slack, not a resubstitution
    estimate.  A final escalation run reports the budget the ladder had to
    reach to certify a fixed (ε, δ) target: the curve read in reverse. *)

val run : ?quick:bool -> seed:int -> unit -> Series.t list
(** One series per δ (rows: budget, accuracy, ε, certified lower bound,
    with each rung's winning bound family in the notes), then a one-row
    escalation series. *)
