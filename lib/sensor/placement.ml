type point = { x : float; y : float }

let dist a b = Float.hypot (a.x -. b.x) (a.y -. b.y)

type t = {
  positions : point array;
  root : int;
  width : float;
  height : float;
  zone : int array;
}

let n t = Array.length t.positions

let uniform rng ~n ~width ~height ?(root_at = `Center) () =
  if n < 1 then invalid_arg "Placement.uniform: need at least one node";
  let positions =
    Array.init n (fun _ ->
        { x = Rng.float rng width; y = Rng.float rng height })
  in
  (match root_at with
  | `Center -> positions.(0) <- { x = width /. 2.; y = height /. 2. }
  | `Corner -> positions.(0) <- { x = 0.; y = 0. });
  { positions; root = 0; width; height; zone = Array.make n (-1) }

let zones rng ~n_zones ~per_zone ~background ~width ~height () =
  if n_zones < 1 then invalid_arg "Placement.zones: need at least one zone";
  let total = 1 + (n_zones * per_zone) + background in
  let positions = Array.make total { x = 0.; y = 0. } in
  let zone = Array.make total (-1) in
  positions.(0) <- { x = width /. 2.; y = height /. 2. };
  (* Zone centers evenly around an inscribed ellipse near the perimeter. *)
  let rx = width *. 0.42 and ry = height *. 0.42 in
  let cx = width /. 2. and cy = height /. 2. in
  let idx = ref 1 in
  for z = 0 to n_zones - 1 do
    let theta = 2. *. Float.pi *. float_of_int z /. float_of_int n_zones in
    let zx = cx +. (rx *. cos theta) and zy = cy +. (ry *. sin theta) in
    let cluster_radius = 0.06 *. Float.min width height in
    for _ = 1 to per_zone do
      let a = Rng.float rng (2. *. Float.pi) in
      let r = cluster_radius *. sqrt (Rng.float rng 1.) in
      positions.(!idx) <- { x = zx +. (r *. cos a); y = zy +. (r *. sin a) };
      zone.(!idx) <- z;
      incr idx
    done
  done;
  for _ = 1 to background do
    positions.(!idx) <-
      { x = Rng.float rng width; y = Rng.float rng height };
    incr idx
  done;
  { positions; root = 0; width; height; zone }

let grid ~rows ~cols ~spacing =
  if rows < 1 || cols < 1 then invalid_arg "Placement.grid: empty grid";
  let n = rows * cols in
  let positions =
    Array.init n (fun i ->
        let r = i / cols and c = i mod cols in
        { x = float_of_int c *. spacing; y = float_of_int r *. spacing })
  in
  {
    positions;
    root = 0;
    width = float_of_int (cols - 1) *. spacing;
    height = float_of_int (rows - 1) *. spacing;
    zone = Array.make n (-1);
  }
