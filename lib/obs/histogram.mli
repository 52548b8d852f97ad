(** Log-scale histograms.

    Every histogram uses one fixed layout (8 buckets per decade over
    10{^-9}..10{^9}), so {!merge_into} is a plain bucket-wise sum and
    percentiles of merged distributions are computed the same way as for
    single ones.  Not thread-safe: a histogram is a plain mutable value
    owned by whoever created it. *)

type t

val create : unit -> t
(** An empty histogram. *)

val observe : t -> float -> unit
(** Record one sample (clamped below at 0). *)

val percentile : t -> float -> float
(** [percentile h p] for [p] in [0, 100]: geometric interpolation inside
    the owning log-scale bucket, clamped to the observed min/max (so a
    single sample reports itself exactly).  NaN when empty. *)

val merge_into : into:t -> t -> unit
(** Bucket-wise sum; count/sum/min/max combine accordingly. *)

val hist_count : t -> int

val hist_sum : t -> float

val hist_min : t -> float

val hist_max : t -> float

val buckets_per_decade : int
