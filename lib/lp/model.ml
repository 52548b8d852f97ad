type var = int

let var_index v = v

type sense = Le | Ge | Eq

type direction = Minimize | Maximize

type status = Revised.status =
  | Optimal
  | Infeasible
  | Unbounded
  | Iteration_limit

let status_equal a b =
  match (a, b) with
  | Optimal, Optimal
  | Infeasible, Infeasible
  | Unbounded, Unbounded
  | Iteration_limit, Iteration_limit ->
      true
  | (Optimal | Infeasible | Unbounded | Iteration_limit), _ -> false

type row = { terms : (float * var) list; sense : sense; rhs : float }

type t = {
  dir : direction;
  mutable names : string list;  (* reversed *)
  mutable lowers : float list;  (* reversed *)
  mutable uppers : float list;  (* reversed *)
  mutable objs : float array;   (* grown on demand *)
  mutable nvars : int;
  mutable rows : row list;      (* reversed *)
  mutable nrows : int;
  (* O(1) per-variable views of the reversed building lists, materialized
     on first lookup or solve and invalidated by [add_var]; keeps
     [var_name] off the O(n) [List.nth] path. *)
  mutable finalized : finalized option;
  mutable start : start option;
}

and start = { basic : (int * var) list; at_upper : var list }

and finalized = {
  f_names : string array;
  f_lowers : float array;
  f_uppers : float array;
}

(* [cell] holds the factors of [rb] once a solve has computed them; see
   {!Revised.solve_factored}. *)
type basis = {
  b_nvars : int;
  b_nrows : int;
  rb : Revised.basis;
  cell : Revised.factor_cell;
}

type solution = {
  status : status;
  objective : float;
  values : float array;
  stats : Revised.stats option;
  row_duals : float array option;
  basis : basis option;
}

let create ?(direction = Minimize) () =
  {
    dir = direction;
    names = [];
    lowers = [];
    uppers = [];
    objs = Array.make 16 0.;
    nvars = 0;
    rows = [];
    nrows = 0;
    finalized = None;
    start = None;
  }

let finalize t =
  match t.finalized with
  | Some f -> f
  | None ->
      let n = t.nvars in
      let names = Array.make n "" in
      let lowers = Array.make n 0. and uppers = Array.make n 0. in
      List.iteri (fun k s -> names.(n - 1 - k) <- s) t.names;
      List.iteri (fun k l -> lowers.(n - 1 - k) <- l) t.lowers;
      List.iteri (fun k u -> uppers.(n - 1 - k) <- u) t.uppers;
      let f = { f_names = names; f_lowers = lowers; f_uppers = uppers } in
      t.finalized <- Some f;
      f

let direction t = t.dir

let add_var t ?(lower = 0.) ?(upper = infinity) ?(obj = 0.) name =
  if lower > upper then invalid_arg "Model.add_var: lower > upper";
  let v = t.nvars in
  t.names <- name :: t.names;
  t.lowers <- lower :: t.lowers;
  t.uppers <- upper :: t.uppers;
  if v >= Array.length t.objs then begin
    let bigger = Array.make (2 * (v + 1)) 0. in
    Array.blit t.objs 0 bigger 0 (Array.length t.objs);
    t.objs <- bigger
  end;
  t.objs.(v) <- obj;
  t.nvars <- v + 1;
  t.finalized <- None;
  v

let var_name t v =
  if v < 0 || v >= t.nvars then invalid_arg "Model.var_name: unknown var";
  (finalize t).f_names.(v)

let set_obj t v c =
  if v < 0 || v >= t.nvars then invalid_arg "Model.set_obj: unknown var";
  t.objs.(v) <- c

let add_constraint t terms sense rhs =
  List.iter
    (fun (_, v) ->
      if v < 0 || v >= t.nvars then
        invalid_arg "Model.add_constraint: unknown var")
    terms;
  t.rows <- { terms; sense; rhs } :: t.rows;
  t.nrows <- t.nrows + 1

let add_le t terms rhs = add_constraint t terms Le rhs
let add_ge t terms rhs = add_constraint t terms Ge rhs
let add_eq t terms rhs = add_constraint t terms Eq rhs

let n_vars t = t.nvars

let n_constraints t = t.nrows

let set_start t s = t.start <- Some s

let var_of_index t j =
  if j < 0 || j >= t.nvars then invalid_arg "Model.var_of_index: out of range";
  j

let value sol v = sol.values.(v)

(* ---- lowering to the revised solver's computational form ---- *)

(* Variable [v] is column [v] and constraint [i]'s slack column
   [nvars + i], as in {!to_problem}. *)
let lower_start t s =
  let n = t.nvars and m = t.nrows in
  let var v =
    if v < 0 || v >= n then invalid_arg "Model.lower_start: unknown var";
    v
  in
  let vars = Array.init m (fun i -> n + i) in
  let at_upper = Array.make (n + m) false in
  List.iter
    (fun (i, v) ->
      if i < 0 || i >= m then
        invalid_arg "Model.lower_start: unknown constraint";
      if vars.(i) <> n + i then
        invalid_arg "Model.lower_start: two variables basic in one constraint";
      vars.(i) <- var v)
    s.basic;
  List.iter (fun v -> at_upper.(var v) <- true) s.at_upper;
  { Problem.vars; at_upper }

let non_finite t i c v =
  invalid_arg
    (Printf.sprintf
       "Model.to_problem: row %d has non-finite coefficient %g for variable \
        %d (%s)"
       i c v
       (finalize t).f_names.(v))

(* The matrix is assembled in compressed-column form in two passes over
   the rows: count each column's terms, then fill them.  Rows go in
   order, so each column's entries come out by ascending row; a row's
   terms go in reverse, so duplicates sum in the order
   {!Sparse_vec.of_assoc} would sum them (latest term first), and the
   same zero and [drop_tol] filters apply: the columns are bit for bit
   those of [of_assoc] on each column's terms. *)
let to_problem t =
  let n = t.nvars and m = t.nrows in
  let f = finalize t in
  let rows = Array.make m { terms = []; sense = Le; rhs = 0. } in
  List.iteri (fun k r -> rows.(m - 1 - k) <- r) t.rows;
  let lower = Array.make (n + m) 0. and upper = Array.make (n + m) 0. in
  Array.blit f.f_lowers 0 lower 0 n;
  Array.blit f.f_uppers 0 upper 0 n;
  let obj = Array.make (n + m) 0. in
  let sign = match t.dir with Minimize -> 1. | Maximize -> -1. in
  for j = 0 to n - 1 do
    obj.(j) <- sign *. t.objs.(j)
  done;
  (* Pass 1: count.  A NaN would pass the zero filter unseen, so every
     coefficient must be finite. *)
  let start = Array.make (n + 1) 0 in
  Array.iteri
    (fun i row ->
      List.iter
        (fun (c, v) ->
          if not (Float.is_finite c) then non_finite t i c v;
          if c <> 0. then start.(v + 1) <- start.(v + 1) + 1)
        row.terms)
    rows;
  for v = 0 to n - 1 do
    start.(v + 1) <- start.(v) + start.(v + 1)
  done;
  (* Pass 2: fill, summing a row's duplicates in place. *)
  let ridx = Array.make start.(n) 0 and rval = Array.make start.(n) 0. in
  let next = Array.sub start 0 n in
  Array.iteri
    (fun i row ->
      let rec add = function
        | [] -> ()
        | (c, v) :: rest ->
            add rest;
            if c <> 0. then begin
              let p = next.(v) in
              if p > start.(v) && ridx.(p - 1) = i then
                rval.(p - 1) <- rval.(p - 1) +. c
              else begin
                ridx.(p) <- i;
                rval.(p) <- c;
                next.(v) <- p + 1
              end
            end
      in
      add row.terms)
    rows;
  let cols = Array.make (n + m) Sparse_vec.empty in
  for v = 0 to n - 1 do
    let keep = ref 0 in
    for p = start.(v) to next.(v) - 1 do
      if Float.abs rval.(p) > Sparse_vec.drop_tol then incr keep
    done;
    let idx = Array.make !keep 0 and value = Array.make !keep 0. in
    let q = ref 0 in
    for p = start.(v) to next.(v) - 1 do
      if Float.abs rval.(p) > Sparse_vec.drop_tol then begin
        idx.(!q) <- ridx.(p);
        value.(!q) <- rval.(p);
        incr q
      end
    done;
    cols.(v) <- Sparse_vec.of_arrays idx value
  done;
  (* One slack column per row: A x + s = rhs. *)
  let rhs = Array.make m 0. in
  let hint = Array.make m (-1) in
  Array.iteri
    (fun i row ->
      rhs.(i) <- row.rhs;
      let s = n + i in
      cols.(s) <- Sparse_vec.of_arrays [| i |] [| 1. |];
      hint.(i) <- s;
      match row.sense with
      | Le ->
          lower.(s) <- 0.;
          upper.(s) <- infinity
      | Ge ->
          lower.(s) <- neg_infinity;
          upper.(s) <- 0.
      | Eq ->
          lower.(s) <- 0.;
          upper.(s) <- 0.)
    rows;
  {
    Problem.nrows = m;
    ncols = n + m;
    cols;
    obj;
    lower;
    upper;
    rhs;
    basis_hint = Some hint;
    start = Option.map (lower_start t) t.start;
    shared = Problem.fresh_shared ();
  }

(* The model's lowering: [problem] when given (the model's own lowering
   with patched rhs or bounds), else a fresh one. *)
let lowered ?problem t =
  match problem with
  | None -> to_problem t
  | Some p ->
      if p.Problem.nrows <> t.nrows || p.Problem.ncols <> t.nvars + t.nrows
      then invalid_arg "Model: lowered problem does not match the model";
      p

let basis_shape b = (b.b_nvars, b.b_nrows)

(* THE basis-compatibility predicate.  The lowering maps variable [v] to
   column [v] and row [i]'s slack to column [nvars + i], so (nvars, nrows)
   equality is exactly what makes a basis portable across solves (and
   across freshly built models of the same shape).  Every consumer of a
   warm-start token — [solve] itself, the certified solve, the
   serving layer's warm-basis pool — must route through this one
   implementation instead of re-deriving the shape check. *)
let basis_compatible t b = b.b_nvars = t.nvars && b.b_nrows = t.nrows

let objective_of t values =
  let acc = ref 0. in
  for j = 0 to t.nvars - 1 do
    acc := !acc +. (t.objs.(j) *. values.(j))
  done;
  !acc

(* Revised solve, also returning the lowered problem and the raw solver
   result so {!solve_certified} can re-check them. *)
let solve_raw ?max_iterations ?deadline ?bland_after ?warm_start ?problem t =
  let prob = lowered ?problem t in
  (* A warm basis is only meaningful for a model of identical shape; the
     shared {!basis_compatible} predicate decides. *)
  let basis, cell =
    match warm_start with
    | Some w when basis_compatible t w -> (Some w.rb, Some w.cell)
    | Some _ | None -> (None, None)
  in
  let res, cell =
    Revised.solve_factored ?max_iterations ?deadline ?bland_after ?basis ?cell
      prob
  in
  (* Internal duals are for the minimized objective; convert to the
     model's direction. *)
  let sign = match t.dir with Minimize -> 1. | Maximize -> -1. in
  let row_duals = Array.map (fun y -> sign *. y) res.Revised.duals in
  let basis =
    { b_nvars = t.nvars; b_nrows = t.nrows; rb = res.Revised.basis; cell }
  in
  let status = res.Revised.status in
  (* Values are only meaningful at an optimum; zero them otherwise so no
     caller can accidentally consume a half-converged iterate. *)
  let values =
    if status = Optimal then Array.sub res.Revised.x 0 t.nvars
    else Array.make t.nvars 0.
  in
  let sol =
    {
      status;
      objective = objective_of t values;
      values;
      stats = Some res.Revised.stats;
      row_duals = Some row_duals;
      basis = Some basis;
    }
  in
  (prob, res, sol)

let solve ?max_iterations ?deadline ?bland_after ?warm_start t =
  let _, _, sol =
    solve_raw ?max_iterations ?deadline ?bland_after ?warm_start t
  in
  sol

(* ---- budget segments ---- *)

type segment = { token : basis; ranging : Ranging.t }

let range ?problem t token ~row =
  let prob = lowered ?problem t in
  if not (basis_compatible t token) then None
  else
    Option.map
      (fun ranging -> { token; ranging })
      (Ranging.compute ~cell:token.cell prob token.rb ~row)

let segment_bounds s = (Ranging.lo s.ranging, Ranging.hi s.ranging)

let segment_basis s = s.token

let affine_certified ?problem t s =
  let prob = lowered ?problem t in
  let t0 = if Obs.Trace.active () then Obs.Trace.now () else 0. in
  let x = Ranging.affine s.ranging ~budget:prob.Problem.rhs.(Ranging.row s.ranging) in
  let report = Certify.certify_optimal prob ~x ~duals:(Ranging.duals s.ranging) in
  if Obs.Trace.active () then begin
    Obs.Trace.emit Obs.Trace.Solve ~name:"lp.affine" ~start_s:t0
      ~dur_s:(Obs.Trace.now () -. t0)
      [
        ("rows", Obs.Trace.Int prob.Problem.nrows);
        ("budget", Obs.Trace.Float prob.Problem.rhs.(Ranging.row s.ranging));
        ("lo", Obs.Trace.Float (Ranging.lo s.ranging));
        ("hi", Obs.Trace.Float (Ranging.hi s.ranging));
        ("certified", Obs.Trace.Bool report.Certify.certified);
        ("primal_residual", Obs.Trace.Float report.Certify.primal_residual);
        ("duality_gap", Obs.Trace.Float report.Certify.duality_gap);
      ]
  end;
  if not report.Certify.certified then Error report
  else
    let sign = match t.dir with Minimize -> 1. | Maximize -> -1. in
    let values = Array.sub x 0 t.nvars in
    Ok
      ( {
          status = Optimal;
          objective = objective_of t values;
          values;
          stats = None;
          row_duals = Some (Array.map (fun y -> sign *. y) (Ranging.duals s.ranging));
          basis = Some s.token;
        },
        report )

(* ---- certified solves ---- *)

let solve_certified ?max_iterations ?deadline ?bland_after ?warm_start
    ?problem t =
  let prob, res, sol =
    solve_raw ?max_iterations ?deadline ?bland_after ?warm_start ?problem t
  in
  let certify_t0 =
    if Obs.Trace.active () then Obs.Trace.now () else 0.
  in
  let report =
    match res.Revised.status with
    | Revised.Optimal ->
        (* Certify in the lowered (minimization) form: the full primal
           vector including slacks against the raw internal duals. *)
        Certify.certify_optimal prob ~x:res.Revised.x ~duals:res.Revised.duals
    | Revised.Infeasible -> (
        match res.Revised.farkas with
        | Some farkas -> Certify.certify_infeasible prob ~farkas
        | None -> Certify.reject "infeasible claim carries no certificate")
    | Revised.Unbounded -> (
        match res.Revised.ray with
        | Some ray -> Certify.certify_unbounded ~x:res.Revised.x prob ~ray
        | None -> Certify.reject "unbounded claim carries no certificate")
    | Revised.Iteration_limit ->
        Certify.reject "iteration/time budget exhausted before optimality"
  in
  if Obs.Trace.active () then begin
    let dur = Obs.Trace.now () -. certify_t0 in
    Obs.Trace.emit Obs.Trace.Certify ~name:"lp.model" ~start_s:certify_t0
      ~dur_s:dur
      [
        ("certified", Obs.Trace.Bool report.Certify.certified);
        ("primal_residual", Obs.Trace.Float report.Certify.primal_residual);
        ("duality_gap", Obs.Trace.Float report.Certify.duality_gap);
      ]
  end;
  (sol, report)
