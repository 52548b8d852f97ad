(** The random LP corpus shared by the differential tests. *)

type spec = {
  maximize : bool;
  lower : float array;
  upper : float array;  (** [infinity] = unbounded above *)
  obj : float array;
  rows : (float array * Lp.Model.sense * float) array;
}

val gen_spec : Rng.t -> spec
(** One LP of 1–6 variables (non-negative lower bounds, some finite
    upper bounds) and 1–6 rows of mixed sense. *)

val build_model : spec -> Lp.Model.t
