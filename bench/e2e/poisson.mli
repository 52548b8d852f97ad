(** Seeded open-loop arrival schedules. *)

val schedule : seed:int -> rate:float -> count:int -> float array
(** Due times, in seconds from the start of the run, of the first [count]
    arrivals of a Poisson process with [rate] arrivals per second.  The
    same seed always gives the same schedule.
    @raise Invalid_argument unless [rate > 0] and [count >= 0]. *)
