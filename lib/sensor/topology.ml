type t = {
  n : int;
  root : int;
  parent : int array;
  children : int array array;
  depth : int array;
  bfs_order : int array;
  subtree_size : int array;
  tin : int array;
  tout : int array;
}

exception Disconnected of int list

let of_parents ~root parent =
  let n = Array.length parent in
  if root < 0 || root >= n then invalid_arg "Topology.of_parents: bad root";
  if parent.(root) <> -1 then
    invalid_arg "Topology.of_parents: root must have parent -1";
  Array.iteri
    (fun i p ->
      if i <> root && (p < 0 || p >= n || p = i) then
        invalid_arg "Topology.of_parents: bad parent entry")
    parent;
  let child_lists = Array.make n [] in
  Array.iteri
    (fun i p -> if i <> root then child_lists.(p) <- i :: child_lists.(p))
    parent;
  let children =
    Array.map (fun l -> Array.of_list (List.sort Int.compare l)) child_lists
  in
  (* BFS computes depth and detects unreachable nodes (cycles). *)
  let depth = Array.make n (-1) in
  let bfs_order = Array.make n (-1) in
  let queue = Queue.create () in
  Queue.add root queue;
  depth.(root) <- 0;
  let count = ref 0 in
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    bfs_order.(!count) <- u;
    incr count;
    Array.iter
      (fun v ->
        depth.(v) <- depth.(u) + 1;
        Queue.add v queue)
      children.(u)
  done;
  if !count <> n then
    invalid_arg "Topology.of_parents: parent array contains a cycle";
  let subtree_size = Array.make n 1 in
  for i = n - 1 downto 1 do
    let u = bfs_order.(i) in
    subtree_size.(parent.(u)) <- subtree_size.(parent.(u)) + subtree_size.(u)
  done;
  (* Euler tour intervals via an explicit stack (avoids deep recursion). *)
  let tin = Array.make n 0 and tout = Array.make n 0 in
  let clock = ref 0 in
  let stack = Stack.create () in
  Stack.push (`Enter root) stack;
  while not (Stack.is_empty stack) do
    match Stack.pop stack with
    | `Enter u ->
        tin.(u) <- !clock;
        incr clock;
        Stack.push (`Exit u) stack;
        Array.iter (fun v -> Stack.push (`Enter v) stack) children.(u)
    | `Exit u ->
        tout.(u) <- !clock;
        incr clock
  done;
  { n; root; parent; children; depth; bfs_order; subtree_size; tin; tout }

let neighbors_within layout range =
  (* Simple O(n^2) adjacency; networks here are at most a few hundred
     nodes, so bucketing is unnecessary. *)
  let n = Placement.n layout in
  let adj = Array.make n [] in
  let pos = layout.Placement.positions in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let d = Placement.dist pos.(i) pos.(j) in
      if d <= range then begin
        adj.(i) <- (j, d) :: adj.(i);
        adj.(j) <- (i, d) :: adj.(j)
      end
    done
  done;
  adj

let build layout ~range =
  let n = Placement.n layout in
  let root = layout.Placement.root in
  let adj = neighbors_within layout range in
  let parent = Array.make n (-1) in
  let hops = Array.make n max_int in
  let linkd = Array.make n infinity in
  hops.(root) <- 0;
  (* BFS by hop count; among equal-hop parents prefer the shorter link. *)
  let frontier = ref [ root ] in
  while !frontier <> [] do
    let next = ref [] in
    List.iter
      (fun u ->
        List.iter
          (fun (v, d) ->
            if hops.(v) > hops.(u) + 1 then begin
              if hops.(v) = max_int then next := v :: !next;
              hops.(v) <- hops.(u) + 1;
              parent.(v) <- u;
              linkd.(v) <- d
            end
            else if hops.(v) = hops.(u) + 1 && d < linkd.(v) then begin
              parent.(v) <- u;
              linkd.(v) <- d
            end)
          adj.(u))
      !frontier;
    frontier := List.sort_uniq Int.compare !next
  done;
  let unreachable = ref [] in
  for i = n - 1 downto 0 do
    if hops.(i) = max_int then unreachable := i :: !unreachable
  done;
  if !unreachable <> [] then raise (Disconnected !unreachable);
  of_parents ~root parent

let min_connecting_range layout =
  (* The minimum range equals the largest edge of a minimum spanning tree
     of the complete distance graph (Prim's algorithm). *)
  let n = Placement.n layout in
  let pos = layout.Placement.positions in
  if n <= 1 then 0.
  else begin
    let in_tree = Array.make n false in
    let best = Array.make n infinity in
    in_tree.(0) <- true;
    for j = 1 to n - 1 do
      best.(j) <- Placement.dist pos.(0) pos.(j)
    done;
    let answer = ref 0. in
    for _ = 1 to n - 1 do
      let u = ref (-1) in
      for j = 0 to n - 1 do
        if (not in_tree.(j)) && (!u < 0 || best.(j) < best.(!u)) then u := j
      done;
      answer := Float.max !answer best.(!u);
      in_tree.(!u) <- true;
      for j = 0 to n - 1 do
        if not in_tree.(j) then
          best.(j) <- Float.min best.(j) (Placement.dist pos.(!u) pos.(j))
      done
    done;
    !answer
  end

let is_ancestor t ~anc ~desc =
  t.tin.(anc) <= t.tin.(desc) && t.tout.(desc) <= t.tout.(anc)

let path_to_root t node =
  let rec up u acc = if u = -1 then List.rev acc else up t.parent.(u) (u :: acc) in
  up node []

let descendants t node =
  let acc = ref [] in
  let rec visit u =
    acc := u :: !acc;
    Array.iter visit t.children.(u)
  in
  visit node;
  !acc

let post_order t =
  let order = Array.make t.n (-1) in
  let i = ref 0 in
  let rec visit u =
    Array.iter visit t.children.(u);
    order.(!i) <- u;
    incr i
  in
  visit t.root;
  order

let height t = Array.fold_left Int.max 0 t.depth

let pp ppf t =
  Format.fprintf ppf "@[<v>tree: %d nodes, height %d, root %d@]" t.n (height t)
    t.root
