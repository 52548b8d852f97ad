type report = {
  certified : bool;
  primal_residual : float;
  bound_violation : float;
  dual_violation : float;
  duality_gap : float;
  reasons : string list;
}

let blank =
  {
    certified = false;
    primal_residual = 0.;
    bound_violation = 0.;
    dual_violation = 0.;
    duality_gap = 0.;
    reasons = [];
  }

let reject reason = { blank with reasons = [ reason ] }

(* The checks below run once per certified solve, so their loops walk
   the column arrays directly: no closure or boxed float per column. *)

(* Scaled residual of [A x = rhs]: each row divided by
   [1 + |rhs_i| + sum_j |a_ij x_j|]. *)
let primal_residual (p : Problem.t) x =
  let act = Array.make p.Problem.nrows 0. in
  let mag = Array.make p.Problem.nrows 0. in
  for j = 0 to Array.length p.Problem.cols - 1 do
    let xj = x.(j) in
    if xj <> 0. then begin
      let col = p.Problem.cols.(j) in
      for q = 0 to Array.length col.idx - 1 do
        let i = col.idx.(q) in
        let t = col.value.(q) *. xj in
        act.(i) <- act.(i) +. t;
        mag.(i) <- mag.(i) +. Float.abs t
      done
    end
  done;
  let worst = ref 0. in
  for i = 0 to p.Problem.nrows - 1 do
    let scale = 1. +. Float.abs p.Problem.rhs.(i) +. mag.(i) in
    worst := Float.max !worst (Float.abs (act.(i) -. p.Problem.rhs.(i)) /. scale)
  done;
  !worst

(* Scaled worst violation of [lower <= x <= upper]. *)
let bound_violation (p : Problem.t) x =
  let worst = ref 0. in
  for j = 0 to p.Problem.ncols - 1 do
    let scale = 1. +. Float.abs x.(j) in
    if p.Problem.lower.(j) > neg_infinity then
      worst := Float.max !worst ((p.Problem.lower.(j) -. x.(j)) /. scale);
    if p.Problem.upper.(j) < infinity then
      worst := Float.max !worst ((x.(j) -. p.Problem.upper.(j)) /. scale)
  done;
  Float.max !worst 0.

let finalize ~reasons report = { report with certified = reasons = []; reasons }

let certify_optimal ?(feas_tol = 1e-6) ?(opt_tol = 1e-6) (p : Problem.t) ~x
    ~duals =
  if Array.length x <> p.Problem.ncols then
    reject "x has the wrong length"
  else if Array.length duals <> p.Problem.nrows then
    reject "duals have the wrong length"
  else begin
    let reasons = ref [] in
    let fail fmt = Printf.ksprintf (fun s -> reasons := s :: !reasons) fmt in
    let pr = primal_residual p x in
    if pr > feas_tol then fail "primal residual %.3g exceeds %.3g" pr feas_tol;
    let bv = bound_violation p x in
    if bv > feas_tol then fail "bound violation %.3g exceeds %.3g" bv feas_tol;
    (* Dual feasibility relative to where x sits, plus the dual objective
       bound.  For each column, [d_j x_j] is bounded below over the box by
       [d_j l_j] when [d_j > 0] and [d_j u_j] when [d_j < 0]; a positive
       reduced cost facing an infinite lower bound (or negative facing an
       infinite upper) makes the dual bound vacuous, so it must vanish. *)
    let dv = ref 0. in
    let dual_obj = ref 0. in
    let vacuous = ref false in
    for i = 0 to p.Problem.nrows - 1 do
      dual_obj := !dual_obj +. (duals.(i) *. p.Problem.rhs.(i))
    done;
    for j = 0 to p.Problem.ncols - 1 do
      (* Reduced cost [d_j = c_j - y'a_j] with per-column scale
         [1 + |c_j| + sum_i |a_ij y_i|]. *)
      let col = p.Problem.cols.(j) in
      let zy = ref 0. and mag = ref 0. in
      for q = 0 to Array.length col.idx - 1 do
        let t = col.value.(q) *. duals.(col.idx.(q)) in
        zy := !zy +. t;
        mag := !mag +. Float.abs t
      done;
      let d = p.Problem.obj.(j) -. !zy in
      let rel = d /. (1. +. Float.abs p.Problem.obj.(j) +. !mag) in
      if rel > opt_tol then
        if p.Problem.lower.(j) > neg_infinity then
          dual_obj := !dual_obj +. (d *. p.Problem.lower.(j))
        else begin
          vacuous := true;
          dv := Float.max !dv rel
        end
      else if rel < -.opt_tol then
        if p.Problem.upper.(j) < infinity then
          dual_obj := !dual_obj +. (d *. p.Problem.upper.(j))
        else begin
          vacuous := true;
          dv := Float.max !dv (-.rel)
        end
      (* |rel| <= opt_tol: treated as zero; contributes nothing. *)
    done;
    if !vacuous then
      fail "dual infeasible: reduced-cost sign violation %.3g" !dv;
    let primal_obj = Problem.objective_value p x in
    let gap =
      Float.abs (primal_obj -. !dual_obj)
      /. (1. +. Float.abs primal_obj +. Float.abs !dual_obj)
    in
    if gap > opt_tol then fail "duality gap %.3g exceeds %.3g" gap opt_tol;
    finalize ~reasons:!reasons
      {
        blank with
        primal_residual = pr;
        bound_violation = bv;
        dual_violation = !dv;
        duality_gap = gap;
      }
  end

let certify_feasible ?(feas_tol = 1e-6) (p : Problem.t) ~x =
  if Array.length x <> p.Problem.ncols then reject "x has the wrong length"
  else begin
    let reasons = ref [] in
    let fail fmt = Printf.ksprintf (fun s -> reasons := s :: !reasons) fmt in
    let pr = primal_residual p x in
    if pr > feas_tol then fail "primal residual %.3g exceeds %.3g" pr feas_tol;
    let bv = bound_violation p x in
    if bv > feas_tol then fail "bound violation %.3g exceeds %.3g" bv feas_tol;
    finalize ~reasons:!reasons
      { blank with primal_residual = pr; bound_violation = bv }
  end

let certify_infeasible ?(tol = 1e-6) (p : Problem.t) ~farkas =
  if Array.length farkas <> p.Problem.nrows then
    reject "certificate has the wrong length"
  else begin
    (* sup over the box of y'Ax, column by column.  [z_j] below the scaled
       tolerance is treated as zero (its box contribution is negligible
       relative to the certificate's slack); a meaningfully nonzero [z_j]
       facing an infinite bound makes the sup infinite and the certificate
       worthless. *)
    let cap = ref 0. and broken = ref None and scale = ref 1. in
    for i = 0 to p.Problem.nrows - 1 do
      scale := !scale +. Float.abs (farkas.(i) *. p.Problem.rhs.(i))
    done;
    (try
       for j = 0 to p.Problem.ncols - 1 do
         let z = ref 0. and mag = ref 0. in
         Sparse_vec.iter
           (fun i a ->
             z := !z +. (a *. farkas.(i));
             mag := !mag +. Float.abs (a *. farkas.(i)))
           p.Problem.cols.(j);
         let z = !z in
         if Float.abs z > tol *. (1. +. !mag) then begin
           let b =
             if z > 0. then p.Problem.upper.(j) else p.Problem.lower.(j)
           in
           if Float.abs b = infinity then begin
             broken := Some j;
             raise Exit
           end;
           cap := !cap +. (z *. b);
           scale := !scale +. Float.abs (z *. b)
         end
       done
     with Exit -> ());
    match !broken with
    | Some j ->
        reject
          (Printf.sprintf
             "certificate needs an infinite bound on column %d to cap y'Ax" j)
    | None ->
        let yb = ref 0. in
        for i = 0 to p.Problem.nrows - 1 do
          yb := !yb +. (farkas.(i) *. p.Problem.rhs.(i))
        done;
        let margin = (!yb -. !cap) /. !scale in
        if margin > tol then { blank with certified = true }
        else
          reject
            (Printf.sprintf "certificate margin %.3g not positive" margin)
  end

let certify_unbounded ?(tol = 1e-6) ?x (p : Problem.t) ~ray =
  if Array.length ray <> p.Problem.ncols then
    reject "ray has the wrong length"
  else begin
    let reasons = ref [] in
    let fail fmt = Printf.ksprintf (fun s -> reasons := s :: !reasons) fmt in
    (* Normalize so verdicts do not depend on the ray's magnitude. *)
    let norm =
      Array.fold_left (fun acc d -> Float.max acc (Float.abs d)) 0. ray
    in
    if norm <= 0. then fail "ray is identically zero"
    else begin
      let d = Array.map (fun v -> v /. norm) ray in
      let act = Array.make p.Problem.nrows 0. in
      let mag = Array.make p.Problem.nrows 0. in
      Array.iteri
        (fun j col ->
          if d.(j) <> 0. then
            Sparse_vec.iter
              (fun i a ->
                act.(i) <- act.(i) +. (a *. d.(j));
                mag.(i) <- mag.(i) +. Float.abs (a *. d.(j)))
              col)
        p.Problem.cols;
      let worst = ref 0. in
      for i = 0 to p.Problem.nrows - 1 do
        worst := Float.max !worst (Float.abs act.(i) /. (1. +. mag.(i)))
      done;
      if !worst > tol then fail "ray residual ‖Ad‖ %.3g exceeds %.3g" !worst tol;
      for j = 0 to p.Problem.ncols - 1 do
        if d.(j) > tol && p.Problem.upper.(j) < infinity then
          fail "ray increases bounded-above column %d" j
        else if d.(j) < -.tol && p.Problem.lower.(j) > neg_infinity then
          fail "ray decreases bounded-below column %d" j
      done;
      let cd = ref 0. and cmag = ref 0. in
      for j = 0 to p.Problem.ncols - 1 do
        cd := !cd +. (p.Problem.obj.(j) *. d.(j));
        cmag := !cmag +. Float.abs (p.Problem.obj.(j) *. d.(j))
      done;
      if !cd >= -.tol *. (1. +. !cmag) then
        fail "objective does not improve along the ray (c'd = %.3g)" !cd;
      match x with
      | None -> ()
      | Some x ->
          let fr = certify_feasible ~feas_tol:tol p ~x in
          if not fr.certified then
            fail "anchor point is not feasible (%s)"
              (String.concat "; " fr.reasons)
    end;
    finalize ~reasons:!reasons blank
  end
