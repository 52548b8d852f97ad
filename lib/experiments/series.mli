(** Result series: the printable tables behind each reproduced figure.

    Each experiment returns one or more named series; [print] renders them
    in an aligned, grep-friendly layout so the repository's EXPERIMENTS.md
    can quote them directly. *)

type t = {
  title : string;
  columns : string list;
  rows : float list list;
  notes : string list;  (** free-form commentary printed under the table *)
}

val make : title:string -> columns:string list -> ?notes:string list ->
  float list list -> t

val print : Format.formatter -> t -> unit

val print_all : Format.formatter -> t list -> unit
