(* What copies of one problem made with [{ p with rhs; lower; upper }]
   share: the matrix checks that passed and the solver-side forms of the
   matrix, each computed once.  An entry applies only to the very arrays
   it was computed from. *)
type rows = { row_start : int array; row_col : int array; row_val : float array }

type basis = { vars : int array; at_upper : bool array }

type matrix = {
  m_cols : Sparse_vec.t array;
  m_nrows : int;
  m_hint : int array option;
  m_start : basis option;  (* the start checked with the matrix *)
  m_identity : Sparse_vec.t array;
  rows : rows option Atomic.t;
}

type shared = matrix option Atomic.t

let fresh_shared () = Atomic.make None

type t = {
  nrows : int;
  ncols : int;
  cols : Sparse_vec.t array;
  obj : float array;
  lower : float array;
  upper : float array;
  rhs : float array;
  basis_hint : int array option;
  start : basis option;
  shared : shared;
}

(* The shared entry of [t]'s matrix, if there is one. *)
let cached t =
  match Atomic.get t.shared with
  | Some e
    when e.m_cols == t.cols && e.m_nrows = t.nrows
         && Option.equal ( == ) e.m_hint t.basis_hint ->
      Some e
  | Some _ | None -> None

let check c msg = if not c then invalid_arg ("Problem: " ^ msg)

(* Messages are formatted only on failure: the passing path of the
   per-column checks costs a few float compares. *)
let fail fmt = Printf.ksprintf (fun msg -> invalid_arg ("Problem: " ^ msg)) fmt

let check_cols t =
  Array.iteri
    (fun j col ->
      Sparse_vec.iter
        (fun i a ->
          if i >= t.nrows then
            fail "column %d has row index %d >= nrows %d" j i t.nrows;
          if not (Float.is_finite a) then
            fail "column %d has non-finite coefficient %g at row %d" j a i)
        col)
    t.cols

let check_hint t =
  match t.basis_hint with
  | None -> ()
  | Some hint ->
      check (Array.length hint = t.nrows) "basis_hint length";
      Array.iteri
        (fun i j ->
          if j >= 0 then begin
            check (j < t.ncols) "basis_hint column out of range";
            let col = t.cols.(j) in
            check (Sparse_vec.nnz col = 1) "basis_hint column not a unit vector";
            check (Sparse_vec.get col i = 1.) "basis_hint column not e_i"
          end)
        hint

let check_start t =
  match t.start with
  | None -> ()
  | Some s ->
      if Array.length s.vars <> t.nrows then
        fail "start has %d basic entries for %d rows" (Array.length s.vars)
          t.nrows;
      if Array.length s.at_upper <> t.ncols then
        fail "start has %d bound flags for %d columns"
          (Array.length s.at_upper) t.ncols;
      let row_of = Array.make t.ncols (-1) in
      Array.iteri
        (fun i j ->
          if j < -1 || j >= t.ncols then
            fail "start row %d has column %d out of range" i j;
          if j >= 0 then begin
            if row_of.(j) >= 0 then
              fail "start column %d is basic in rows %d and %d" j row_of.(j) i;
            row_of.(j) <- i
          end)
        s.vars

(* The checks run in a fixed order, so a problem with several faults is
   refused for the first: dimensions and lengths, the columns, bounds and
   objective, the rhs, the hint, the start.  The columns and the hint are
   checked once per matrix, and so is the start the matrix was first
   checked with; bounds, objective, rhs and any other start on every
   call, since copies patch them. *)
let matrix t =
  check (t.nrows >= 0 && t.ncols >= 0) "negative dimensions";
  check (Array.length t.cols = t.ncols) "cols length";
  check (Array.length t.obj = t.ncols) "obj length";
  check (Array.length t.lower = t.ncols) "lower length";
  check (Array.length t.upper = t.ncols) "upper length";
  check (Array.length t.rhs = t.nrows) "rhs length";
  let hit = cached t in
  if Option.is_none hit then check_cols t;
  for j = 0 to t.ncols - 1 do
    let lo = t.lower.(j) and hi = t.upper.(j) in
    if Float.is_nan lo || Float.is_nan hi then fail "NaN bound on column %d" j;
    if not (lo <= hi) then
      fail "column %d has lower bound %g > upper bound %g" j lo hi;
    if not (lo < infinity) then fail "column %d has lower bound +inf" j;
    if not (hi > neg_infinity) then fail "column %d has upper bound -inf" j;
    if not (Float.is_finite t.obj.(j)) then
      fail "column %d has non-finite objective coefficient %g" j t.obj.(j)
  done;
  for i = 0 to t.nrows - 1 do
    if not (Float.is_finite t.rhs.(i)) then
      fail "row %d has non-finite rhs %g" i t.rhs.(i)
  done;
  match hit with
  | Some e ->
      if not (Option.equal ( == ) e.m_start t.start) then check_start t;
      e
  | None ->
      check_hint t;
      check_start t;
      let m_identity = Array.make (t.ncols + t.nrows) Sparse_vec.empty in
      Array.blit t.cols 0 m_identity 0 t.ncols;
      for i = 0 to t.nrows - 1 do
        m_identity.(t.ncols + i) <- Sparse_vec.of_arrays [| i |] [| 1. |]
      done;
      let e =
        {
          m_cols = t.cols;
          m_nrows = t.nrows;
          m_hint = t.basis_hint;
          m_start = t.start;
          m_identity;
          rows = Atomic.make None;
        }
      in
      Atomic.set t.shared (Some e);
      e

let validate t = ignore (matrix t)

let with_identity e = e.m_identity

let build_rows e =
  let m = e.m_nrows in
  let row_start = Array.make (m + 1) 0 in
  Array.iter
    (fun (col : Sparse_vec.t) ->
      Array.iter (fun i -> row_start.(i + 1) <- row_start.(i + 1) + 1) col.idx)
    e.m_cols;
  for i = 0 to m - 1 do
    row_start.(i + 1) <- row_start.(i) + row_start.(i + 1)
  done;
  let nnz = row_start.(m) in
  let row_col = Array.make nnz 0 and row_val = Array.make nnz 0. in
  let next = Array.sub row_start 0 m in
  Array.iteri
    (fun j (col : Sparse_vec.t) ->
      for p = 0 to Array.length col.idx - 1 do
        let i = col.idx.(p) in
        row_col.(next.(i)) <- j;
        row_val.(next.(i)) <- col.value.(p);
        next.(i) <- next.(i) + 1
      done)
    e.m_cols;
  { row_start; row_col; row_val }

let rows e =
  match Atomic.get e.rows with
  | Some r -> r
  | None ->
      let r = build_rows e in
      if Atomic.compare_and_set e.rows None (Some r) then r
      else Option.value (Atomic.get e.rows) ~default:r

let nnz t = Array.fold_left (fun acc c -> acc + Sparse_vec.nnz c) 0 t.cols
let compatible_basis t vars =
  Array.length vars = t.nrows
  &&
  let seen = Array.make t.ncols false in
  Array.for_all
    (fun j ->
      j = -1
      || (j >= 0 && j < t.ncols
          &&
          if seen.(j) then false
          else begin
            seen.(j) <- true;
            true
          end))
    vars

let activity t x =
  let act = Array.make t.nrows 0. in
  Array.iteri
    (fun j col -> if x.(j) <> 0. then Sparse_vec.axpy_dense x.(j) col act)
    t.cols;
  act

let objective_value t x =
  let acc = ref 0. in
  for j = 0 to t.ncols - 1 do
    acc := !acc +. (t.obj.(j) *. x.(j))
  done;
  !acc

let max_constraint_violation t x =
  let act = activity t x in
  let viol = ref 0. in
  for i = 0 to t.nrows - 1 do
    viol := Float.max !viol (Float.abs (act.(i) -. t.rhs.(i)))
  done;
  for j = 0 to t.ncols - 1 do
    viol := Float.max !viol (t.lower.(j) -. x.(j));
    viol := Float.max !viol (x.(j) -. t.upper.(j))
  done;
  Float.max !viol 0.
