(** The spanning tree a sensor network is organized as (Section 2).

    Queries are distributed down and results collected up a tree rooted at
    the query station.  [build] constructs a minimum-hop tree over the radio
    connectivity graph of a {!Placement.t} (each node is as few hops from
    the root as possible, ties broken by link distance), which matches the
    paper's construction. *)

type t = private {
  n : int;
  root : int;
  parent : int array;  (** [parent.(root) = -1] *)
  children : int array array;
  depth : int array;  (** [depth.(root) = 0] *)
  bfs_order : int array;  (** parents before children, root first *)
  subtree_size : int array;  (** includes the node itself *)
  tin : int array;
  tout : int array;  (** Euler intervals for O(1) ancestry tests *)
}

exception Disconnected of int list
(** Nodes unreachable from the root at the given radio range. *)

val of_parents : root:int -> int array -> t
(** Build from an explicit parent array ([-1] for the root).
    @raise Invalid_argument on cycles, bad root, or out-of-range entries. *)

val build : Placement.t -> range:float -> t
(** Minimum-hop spanning tree over the radio graph.
    @raise Disconnected if some node is out of reach. *)

val min_connecting_range : Placement.t -> float
(** The smallest radio range at which the network is connected (the paper
    shortens the Intel-lab radio range to the minimum that still connects
    the tree).  Computed exactly from the inter-node distances. *)

val is_ancestor : t -> anc:int -> desc:int -> bool
(** Reflexive: [is_ancestor t ~anc:i ~desc:i = true]. *)

val path_to_root : t -> int -> int list
(** The node itself first, the root last. *)

val descendants : t -> int -> int list
(** All nodes in the subtree rooted at the node, itself included. *)

val post_order : t -> int array
(** Children before parents; root last. *)

val height : t -> int

val pp : Format.formatter -> t -> unit
