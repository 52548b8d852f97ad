type t = {
  row : int;
  anchor : float;
  lo : float;
  hi : float;
  x0 : float array;  (* the basic solution at [anchor], length ncols *)
  (* the basic columns that move with the right-hand side, and [d] on them *)
  moving : int array;
  rate : float array;
  duals : float array;
}

(* A basic value further than this outside its bounds at the anchor means
   the basis was not feasible there: nothing to range. *)
let feas_tol = 1e-7

let compute ~cell (prob : Problem.t) (b : Revised.basis) ~row =
  let m = prob.Problem.nrows and n = prob.Problem.ncols in
  if
    row < 0 || row >= m
    || Array.length b.Revised.vars <> m
    || Array.length b.Revised.at_upper <> n
    || not (Problem.compatible_basis prob b.Revised.vars)
  then None
  else
    let cols = Problem.with_identity (Problem.matrix prob) in
    (* slot [s] holds column [vars.(s)], or row [s]'s artificial (fixed
       at 0) when [vars.(s) = -1] *)
    let basic = Array.mapi (fun s j -> if j >= 0 then j else n + s) b.Revised.vars in
    match Revised.cell_factor cell (Array.map (fun j -> cols.(j)) basic) with
    | exception Lu.Singular _ -> None
    | lu ->
        let lower = prob.Problem.lower and upper = prob.Problem.upper in
        let is_basic = Array.make n false in
        Array.iter (fun j -> if j < n then is_basic.(j) <- true) basic;
        (* Nonbasic columns at the bound the token records, as a warm
           start places them. *)
        let x0 = Array.make n 0. in
        let r = Array.copy prob.Problem.rhs in
        for j = 0 to n - 1 do
          if not is_basic.(j) then begin
            let v =
              if b.Revised.at_upper.(j) && upper.(j) < infinity then upper.(j)
              else if lower.(j) > neg_infinity then lower.(j)
              else if upper.(j) < infinity then upper.(j)
              else 0.
            in
            x0.(j) <- v;
            if v <> 0. then Sparse_vec.axpy_dense (-.v) cols.(j) r
          end
        done;
        let xb = Lu.solve lu r in
        let e = Array.make m 0. in
        e.(row) <- 1.;
        let d = Lu.solve lu e in
        let duals =
          Lu.solve_transpose lu
            (Array.map (fun j -> if j < n then prob.Problem.obj.(j) else 0.) basic)
        in
        (* Ratio test: [t = β − β₀] keeps [l <= v + t·d_s <= u] on every
           slot.  A value within tolerance outside a bound counts as on
           it, so the anchor always lies in the interval. *)
        let tmin = ref neg_infinity and tmax = ref infinity in
        let feasible = ref true in
        let moving = ref [] in
        Array.iteri
          (fun s j ->
            let l, u = if j < n then (lower.(j), upper.(j)) else (0., 0.) in
            let v = xb.(s) and ds = d.(s) in
            if j < n then x0.(j) <- v;
            if v < l -. (feas_tol *. (1. +. Float.abs l))
               || v > u +. (feas_tol *. (1. +. Float.abs u))
            then feasible := false;
            if ds <> 0. then begin
              if j < n then moving := (j, ds) :: !moving;
              let up = Float.max 0. (u -. v) /. ds
              and down = Float.min 0. (l -. v) /. ds in
              if ds > 0. then begin
                tmax := Float.min !tmax up;
                tmin := Float.max !tmin down
              end
              else begin
                tmax := Float.min !tmax down;
                tmin := Float.max !tmin up
              end
            end)
          basic;
        if not !feasible then None
        else
          let moving = Array.of_list (List.rev !moving) in
          let anchor = prob.Problem.rhs.(row) in
          Some
            {
              row;
              anchor;
              lo = anchor +. !tmin;
              hi = anchor +. !tmax;
              x0;
              moving = Array.map fst moving;
              rate = Array.map snd moving;
              duals;
            }

let row t = t.row
let lo t = t.lo
let hi t = t.hi
let duals t = t.duals

let affine t ~budget =
  let x = Array.copy t.x0 in
  let step = budget -. t.anchor in
  Array.iteri (fun p j -> x.(j) <- t.x0.(j) +. (step *. t.rate.(p))) t.moving;
  x
