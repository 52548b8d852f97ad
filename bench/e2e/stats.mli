(** Order statistics for benchmark samples.

    Percentiles use the nearest-rank rule on the sorted samples; the
    quartiles follow Python's [statistics.quantiles(xs, n=4)] (its
    default "exclusive" method), so a spread computed here matches one
    computed from the printed values by a script. *)

val sorted : float array -> float array
(** A sorted copy. *)

val mean : float array -> float
(** 0 for no samples. *)

val median : float array -> float
(** Middle value, averaging the two middle values for an even count.
    @raise Invalid_argument on no samples. *)

val paired_median : float array -> float
(** For samples in time order: each is paired with the one half the
    samples later (an odd last one is left out), and the result is the
    median over pairs of the smaller of each pair.  A single sample is
    its own result.
    @raise Invalid_argument on no samples. *)

val percentile : p:float -> float array -> float
(** Nearest-rank [p]-th percentile ([0 < p <= 100]).
    @raise Invalid_argument on no samples. *)

val tail_percentile : int -> float option
(** The highest percentile in 99.9, 99, 95, 90, 75, 50 that has at least
    ten of [n] samples beyond its rank; [None] when even the median has
    fewer than ten. *)

val quartiles : float array -> float * float * float
(** [(q1, q2, q3)] by Python's exclusive method.
    @raise Invalid_argument on fewer than two samples. *)

val iqr_frac : float array -> float
(** [(q3 - q1) / q2]: the run-to-run spread the acceptance rule uses. *)

val spread : float array -> float
(** [max / min - 1]; 0 for fewer than two samples, infinity when the
    minimum is not positive. *)
