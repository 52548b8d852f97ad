type sense = Le | Ge | Eq

type status = Lp.Model.status =
  | Optimal
  | Infeasible
  | Unbounded
  | Iteration_limit

type result = { status : status; x : float array; objective : float }

let tol = 1e-9

(* Tableau layout: [tab] has [m] constraint rows and one objective row (the
   last), over [ncols] columns plus the rhs column (the last).  [basis.(i)]
   is the column basic in row [i]. *)
type tableau = {
  tab : float array array;
  basis : int array;
  m : int;
  ncols : int;
}

let pivot t ~row ~col =
  let p = t.tab.(row).(col) in
  let trow = t.tab.(row) in
  for j = 0 to t.ncols do
    trow.(j) <- trow.(j) /. p
  done;
  for i = 0 to t.m do
    if i <> row then begin
      let f = t.tab.(i).(col) in
      if f <> 0. then
        for j = 0 to t.ncols do
          t.tab.(i).(j) <- t.tab.(i).(j) -. (f *. trow.(j))
        done
    end
  done;
  t.basis.(row) <- col

(* One simplex phase with Bland's rule.  [allowed j] filters the columns
   that may enter; [budget] is the remaining pivot allowance shared across
   phases.  Returns [`Optimal], [`Unbounded] or [`Limit]. *)
let run_phase t ~budget ~allowed =
  let rec loop () =
    (* Entering: first allowed column with a negative reduced cost. *)
    let entering = ref (-1) in
    (try
       for j = 0 to t.ncols - 1 do
         if allowed j && t.tab.(t.m).(j) < -.tol then begin
           entering := j;
           raise Exit
         end
       done
     with Exit -> ());
    if !entering < 0 then `Optimal
    else begin
      let col = !entering in
      (* Leaving: minimum ratio; ties broken by the smallest basic index. *)
      let best_row = ref (-1) in
      let best_ratio = ref infinity in
      for i = 0 to t.m - 1 do
        let a = t.tab.(i).(col) in
        if a > tol then begin
          let ratio = t.tab.(i).(t.ncols) /. a in
          if
            ratio < !best_ratio -. tol
            || (ratio < !best_ratio +. tol
               && (!best_row < 0 || t.basis.(i) < t.basis.(!best_row)))
          then begin
            best_ratio := ratio;
            best_row := i
          end
        end
      done;
      if !best_row < 0 then `Unbounded
      else if !budget <= 0 then `Limit
      else begin
        decr budget;
        pivot t ~row:!best_row ~col;
        loop ()
      end
    end
  in
  loop ()

let solve ?(maximize = false) ?(max_pivots = max_int) ~obj ~constraints () =
  let budget = ref max_pivots in
  let nvars = Array.length obj in
  let m = Array.length constraints in
  Array.iter
    (fun (row, _, _) ->
      if Array.length row <> nvars then
        invalid_arg "Dense_simplex.solve: row length")
    constraints;
  (* Normalize rows to a non-negative rhs. *)
  let rows =
    Array.map
      (fun (row, sense, rhs) ->
        if rhs < 0. then
          ( Array.map (fun a -> -.a) row,
            (match sense with Le -> Ge | Ge -> Le | Eq -> Eq),
            -.rhs )
        else (Array.copy row, sense, rhs))
      constraints
  in
  (* Column layout: structural | slack/surplus | artificial | rhs. *)
  let n_slack =
    Array.fold_left
      (fun acc (_, sense, _) -> match sense with Le | Ge -> acc + 1 | Eq -> acc)
      0 rows
  in
  let n_artificial =
    Array.fold_left
      (fun acc (_, sense, _) -> match sense with Ge | Eq -> acc + 1 | Le -> acc)
      0 rows
  in
  let ncols = nvars + n_slack + n_artificial in
  let tab = Array.make_matrix (m + 1) (ncols + 1) 0. in
  let basis = Array.make m (-1) in
  let art_cols = ref [] in
  let slack_pos = ref nvars in
  let art_pos = ref (nvars + n_slack) in
  Array.iteri
    (fun i (row, sense, rhs) ->
      Array.blit row 0 tab.(i) 0 nvars;
      tab.(i).(ncols) <- rhs;
      (match sense with
      | Le ->
          tab.(i).(!slack_pos) <- 1.;
          basis.(i) <- !slack_pos;
          incr slack_pos
      | Ge ->
          tab.(i).(!slack_pos) <- -1.;
          incr slack_pos
      | Eq -> ());
      match sense with
      | Ge | Eq ->
          tab.(i).(!art_pos) <- 1.;
          basis.(i) <- !art_pos;
          art_cols := !art_pos :: !art_cols;
          incr art_pos
      | Le -> ())
    rows;
  let t = { tab; basis; m; ncols } in
  let is_artificial = Array.make ncols false in
  List.iter (fun j -> is_artificial.(j) <- true) !art_cols;
  let objective_row_from c =
    (* Reduced objective row: c minus the contribution of basic columns. *)
    Array.fill t.tab.(m) 0 (ncols + 1) 0.;
    Array.blit c 0 t.tab.(m) 0 (Array.length c);
    for i = 0 to m - 1 do
      let cb = t.tab.(m).(t.basis.(i)) in
      if cb <> 0. then
        for j = 0 to ncols do
          t.tab.(m).(j) <- t.tab.(m).(j) -. (cb *. t.tab.(i).(j))
        done
    done
  in
  let extract () =
    let x = Array.make nvars 0. in
    for i = 0 to m - 1 do
      if t.basis.(i) < nvars then x.(t.basis.(i)) <- t.tab.(i).(ncols)
    done;
    x
  in
  let real_obj = if maximize then Array.map (fun c -> -.c) obj else obj in
  let finish status =
    let x = extract () in
    let value =
      Array.to_list (Array.mapi (fun j c -> c *. x.(j)) obj)
      |> List.fold_left ( +. ) 0.
    in
    { status; x; objective = value }
  in
  (* Phase 1 if any artificial is present. *)
  let phase1_ok =
    if !art_cols = [] then `Feasible
    else begin
      let c1 = Array.make ncols 0. in
      List.iter (fun j -> c1.(j) <- 1.) !art_cols;
      objective_row_from c1;
      match run_phase t ~budget ~allowed:(fun _ -> true) with
      | `Unbounded -> assert false (* phase-1 objective is bounded below *)
      | `Limit -> `Limit
      | `Optimal ->
          (* -tab.(m).(ncols) is the phase-1 optimum. *)
          if Float.abs t.tab.(m).(ncols) <= 1e-7 then `Feasible
          else `Infeasible
    end
  in
  match phase1_ok with
  | `Limit ->
      { status = Iteration_limit; x = Array.make nvars 0.; objective = 0. }
  | `Infeasible ->
      { status = Infeasible; x = Array.make nvars 0.; objective = 0. }
  | `Feasible -> begin
    (* Pivot any artificial still basic (at zero) out when possible. *)
    for i = 0 to m - 1 do
      if is_artificial.(t.basis.(i)) then begin
        let found = ref (-1) in
        (try
           for j = 0 to ncols - 1 do
             if (not is_artificial.(j)) && Float.abs t.tab.(i).(j) > tol then begin
               found := j;
               raise Exit
             end
           done
         with Exit -> ());
        if !found >= 0 then pivot t ~row:i ~col:!found
        (* else: redundant row; the artificial stays basic at zero. *)
      end
    done;
    let c2 = Array.make ncols 0. in
    Array.blit real_obj 0 c2 0 nvars;
    objective_row_from c2;
    match run_phase t ~budget ~allowed:(fun j -> not is_artificial.(j)) with
    | `Optimal -> finish Optimal
    | `Unbounded -> finish Unbounded
    | `Limit -> { status = Iteration_limit; x = Array.make nvars 0.; objective = 0. }
  end

(* ---- dense lowering of a computational-form problem ----
   [p] is [min c'x] subject to [A x = rhs] and [lower <= x <= upper].  A
   row's hint column that is a slack bounded [0, inf), (-inf, 0] or
   [0, 0] (every row {!Lp.Model.to_problem} emits) is dropped and the
   row becomes a [Le], [Ge] or [Eq] row; any other row is an [Eq] row.
   Each remaining column [j] becomes one or two dense parts [(j, sign)]
   over [x >= 0]: a finite lower bound is shifted out, a free column is
   split into a difference of non-negatives, and a finite upper bound
   becomes an extra row. *)

let solve_problem ?max_pivots (p : Lp.Problem.t) =
  Lp.Problem.validate p;
  let sense = Array.make p.nrows Eq and slack = Array.make p.ncols false in
  let hint = Option.value p.basis_hint ~default:(Array.make p.nrows (-1)) in
  Array.iteri
    (fun i s ->
      if s >= 0 then
        let lo = p.lower.(s) and hi = p.upper.(s) in
        let mark r =
          sense.(i) <- r;
          slack.(s) <- true
        in
        if lo = 0. && hi = infinity then mark Le
        else if lo = neg_infinity && hi = 0. then mark Ge
        else if lo = 0. && hi = 0. then mark Eq)
    hint;
  let columns =
    List.filter (fun j -> not slack.(j)) (List.init p.ncols Fun.id)
  in
  let parts =
    Array.of_list
      (List.concat_map
         (fun j ->
           if p.lower.(j) = neg_infinity then [ (j, 1.); (j, -1.) ]
           else [ (j, 1.) ])
         columns)
  in
  let shift j = if p.lower.(j) = neg_infinity then 0. else p.lower.(j) in
  let rows = Array.make_matrix p.nrows (Array.length parts) 0. in
  let rhs = Array.copy p.rhs in
  Array.iteri
    (fun k (j, sign) ->
      Lp.Sparse_vec.iter
        (fun i a ->
          rows.(i).(k) <- sign *. a;
          if sign > 0. then rhs.(i) <- rhs.(i) -. (a *. shift j))
        p.cols.(j))
    parts;
  let bound_rows =
    List.filter_map
      (fun j ->
        if p.upper.(j) = infinity then None
        else
          let row =
            Array.map (fun (j', sign) -> if j' = j then sign else 0.) parts
          in
          Some (row, Le, p.upper.(j) -. shift j))
      columns
  in
  let res =
    solve ?max_pivots
      ~obj:(Array.map (fun (j, sign) -> sign *. p.obj.(j)) parts)
      ~constraints:
        (Array.append
           (Array.mapi (fun i row -> (row, sense.(i), rhs.(i))) rows)
           (Array.of_list bound_rows))
      ()
  in
  (* The full point: the parts summed back, then each dropped slack as
     its row's residual. *)
  let x = Array.make p.ncols 0. in
  if res.status = Optimal then begin
    List.iter (fun j -> x.(j) <- shift j) columns;
    Array.iteri
      (fun k (j, sign) -> x.(j) <- x.(j) +. (sign *. res.x.(k)))
      parts;
    let act = Lp.Problem.activity p x in
    Array.iteri
      (fun i s -> if s >= 0 && slack.(s) then x.(s) <- p.rhs.(i) -. act.(i))
      hint
  end;
  (res.status, x)

let solve_model ?max_pivots m =
  let p = Lp.Model.to_problem m in
  let status, x = solve_problem ?max_pivots p in
  let objective =
    match (status, Lp.Model.direction m) with
    | Optimal, Lp.Model.Minimize -> Lp.Problem.objective_value p x
    | Optimal, Lp.Model.Maximize -> -.Lp.Problem.objective_value p x
    | _ -> 0.
  in
  let values = Array.sub x 0 (Lp.Model.n_vars m) in
  ( { Lp.Model.status; objective; values; stats = None; row_duals = None;
      basis = None },
    match status with
    | Optimal -> Lp.Certify.certify_feasible p ~x
    | Infeasible -> Lp.Certify.reject "dense solver reported infeasible"
    | Unbounded -> Lp.Certify.reject "dense solver reported unbounded"
    | Iteration_limit -> Lp.Certify.reject "dense pivot budget exhausted" )
