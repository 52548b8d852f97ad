(** Node placement generators.

    A layout is a set of 2-D node positions with a designated root (the
    query station).  Generators cover the paper's experimental setups:
    uniform-random fields (Figure 3), "contention-zone" rings (Figures 5-7)
    and regular grids (the Intel-lab-style floor plan of Figure 9). *)

type point = { x : float; y : float }

val dist : point -> point -> float

type t = {
  positions : point array;
  root : int;
  width : float;
  height : float;
  zone : int array;
      (** [zone.(i)] is the contention zone of node [i], or [-1] for
          background nodes; all [-1] for non-zoned layouts *)
}

val n : t -> int

val uniform :
  Rng.t -> n:int -> width:float -> height:float ->
  ?root_at:[ `Center | `Corner ] -> unit -> t
(** [n] nodes placed uniformly at random; the root node is moved to the
    requested location (default [`Center]). *)

val zones :
  Rng.t ->
  n_zones:int ->
  per_zone:int ->
  background:int ->
  width:float ->
  height:float ->
  unit ->
  t
(** The layout of the paper's Figure 6: [n_zones] clusters of [per_zone]
    nodes spaced evenly around the perimeter of the rectangle, [background]
    nodes uniform in the interior, and the root at the center. *)

val grid : rows:int -> cols:int -> spacing:float -> t
(** A [rows] x [cols] grid with the root at the north-west corner, used for
    lab-floor-plan style deployments. *)
