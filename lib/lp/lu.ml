(* Sparse LU of a simplex basis with hypersparse triangular solves.

   Factorization is Gaussian elimination on an array-backed active
   submatrix: each row keeps its entries (columns and values, unordered),
   each column keeps the pattern of rows holding an entry, and a column
   scatter map locates a row's entries while that row is being updated.
   Every order that reaches the arithmetic or the pivot choice is fixed
   explicitly (sorted pivot rows and elimination rows, a LIFO singleton
   stack, a Markowitz scan whose ties go to the lowest column then row), so
   the factors never depend on the unordered storage.

   The solves find the steps a sparse right-hand side can reach by a
   search over the factor's graph (Gilbert-Peierls) and process only those,
   in the same order a full sweep would use; when the reach is a large
   share of the steps they sweep every step instead.  Either way each
   step performs the same floating-point operations, so both branches
   produce the same bits. *)

(* The U factor, step by step.  The solves read it through this record,
   so a factor under updates ({!Update}) runs the same step code. *)
type upper = {
  pivot_rows : int array;
  pivot_cols : int array;
  pivot_vals : float array;
  step_of_row : int array;
  step_of_col : int array;
  (* Per step k: the U row, pivot excluded, at
     [u_cols.(k).(0 .. u_len.(k)-1)] (an update leaves room at the end). *)
  u_cols : int array array;
  u_vals : float array array;
  u_len : int array;
  (* The U column pivoted at step k, as target ROW indices (pivot rows of
     the earlier steps owning each entry) — the scatter form of the
     backward solve. *)
  ucol_rows : int array array;
  ucol_vals : float array array;
  ucol_len : int array;
  retired : Bytes.t;  (* ['\001'] at steps an update retired *)
}

type t = {
  dim : int;
  (* L is read through [up.pivot_rows] and [up.step_of_row], which an
     update never changes: it works on copies. *)
  up : upper;
  (* Multipliers of the L factor: row_r <- row_r -. f *. row_{pivot_row}. *)
  l_rows : int array array;  (* per step *)
  l_factors : float array array;
  l_len : int array;  (* lengths of [l_rows], for the reach *)
  (* Per step k: the pivot rows of the steps whose [l_rows] contain
     [pivot_rows.(k)] — the graph of the transposed L solve. *)
  lt_rows : int array array;
  lt_len : int array;
  nnz : int;
}

exception Singular of int

let drop_tol = 1e-13
let abs_pivot_tol = 1e-11
let threshold = 0.01

(* Sorts [a.(0 .. n-1)] ascending without a comparator closure: insertion
   sort for the short prefixes the solves mostly see, heapsort beyond. *)
let sort_ints (a : int array) n =
  if n <= 16 then
    for i = 1 to n - 1 do
      let x = a.(i) in
      let j = ref (i - 1) in
      while !j >= 0 && a.(!j) > x do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- x
    done
  else begin
    let sift i len =
      let i = ref i and go = ref true in
      while !go do
        let l = (2 * !i) + 1 in
        if l >= len then go := false
        else begin
          let c = if l + 1 < len && a.(l + 1) > a.(l) then l + 1 else l in
          if a.(c) > a.(!i) then begin
            let x = a.(c) in
            a.(c) <- a.(!i);
            a.(!i) <- x;
            i := c
          end
          else go := false
        end
      done
    in
    for i = (n / 2) - 1 downto 0 do
      sift i n
    done;
    for e = n - 1 downto 1 do
      let x = a.(e) in
      a.(e) <- a.(0);
      a.(0) <- x;
      sift 0 e
    done
  end

(* ---- factorization ---- *)

let factor ~dim cols =
  if Array.length cols <> dim then invalid_arg "Lu.factor: column count";
  (* Active submatrix.  Row [r] holds its entries at
     [row_cols.(r).(0 .. row_len.(r)-1)] / [row_vals]; column [c] holds
     the rows with an entry at [col_rows.(c).(0 .. col_len.(c)-1)].  Both
     are unordered; eliminated rows and columns are empty. *)
  let row_len = Array.make dim 0 and col_len = Array.make dim 0 in
  Array.iteri
    (fun c (v : Sparse_vec.t) ->
      col_len.(c) <- Array.length v.idx;
      Array.iter (fun r -> row_len.(r) <- row_len.(r) + 1) v.idx)
    cols;
  let row_cols = Array.init dim (fun r -> Array.make (row_len.(r) + 2) 0) in
  let row_vals = Array.init dim (fun r -> Array.make (row_len.(r) + 2) 0.) in
  let col_rows = Array.init dim (fun c -> Array.make (col_len.(c) + 2) 0) in
  Array.fill row_len 0 dim 0;
  Array.iteri
    (fun c (v : Sparse_vec.t) ->
      Array.iteri
        (fun p r ->
          let n = row_len.(r) in
          row_cols.(r).(n) <- c;
          row_vals.(r).(n) <- v.value.(p);
          row_len.(r) <- n + 1;
          col_rows.(c).(p) <- r)
        v.idx)
    cols;
  (* [pos.(c)] is the position of column [c] in the row currently
     scattered, or -1. *)
  let pos = Array.make dim (-1) in
  let scatter r =
    let cs = row_cols.(r) in
    for p = 0 to row_len.(r) - 1 do
      pos.(cs.(p)) <- p
    done
  in
  let unscatter r =
    let cs = row_cols.(r) in
    for p = 0 to row_len.(r) - 1 do
      pos.(cs.(p)) <- -1
    done
  in
  (* Value at (r, c), for an entry known to exist; rows are short. *)
  let entry r c =
    let cs = row_cols.(r) in
    let p = ref 0 in
    while cs.(!p) <> c do
      incr p
    done;
    row_vals.(r).(!p)
  in
  (* Remove the entry at position [p] of the scattered row [r]. *)
  let row_remove_at r p =
    let last = row_len.(r) - 1 in
    let cs = row_cols.(r) and vs = row_vals.(r) in
    pos.(cs.(p)) <- -1;
    if p < last then begin
      cs.(p) <- cs.(last);
      vs.(p) <- vs.(last);
      pos.(cs.(p)) <- p
    end;
    row_len.(r) <- last
  in
  let row_append r c v =
    let n = row_len.(r) in
    if n = Array.length row_cols.(r) then begin
      let cs = Array.make ((2 * n) + 4) 0 in
      let vs = Array.make ((2 * n) + 4) 0. in
      Array.blit row_cols.(r) 0 cs 0 n;
      Array.blit row_vals.(r) 0 vs 0 n;
      row_cols.(r) <- cs;
      row_vals.(r) <- vs
    end;
    row_cols.(r).(n) <- c;
    row_vals.(r).(n) <- v;
    pos.(c) <- n;
    row_len.(r) <- n + 1
  in
  let col_remove c r =
    let rs = col_rows.(c) in
    let last = col_len.(c) - 1 in
    let p = ref 0 in
    while rs.(!p) <> r do
      incr p
    done;
    rs.(!p) <- rs.(last);
    col_len.(c) <- last
  in
  let col_append c r =
    let n = col_len.(c) in
    if n = Array.length col_rows.(c) then begin
      let rs = Array.make ((2 * n) + 4) 0 in
      Array.blit col_rows.(c) 0 rs 0 n;
      col_rows.(c) <- rs
    end;
    col_rows.(c).(n) <- r;
    col_len.(c) <- n + 1
  in
  let row_active = Array.make dim true in
  let col_active = Array.make dim true in
  (* Stacks of candidate singleton rows/columns; entries are revalidated
     when popped, so stale entries are harmless.  The push points fix the
     pivot order, so they follow the elimination exactly. *)
  let singleton_cols = ref [] in
  let singleton_rows = ref [] in
  for i = 0 to dim - 1 do
    if col_len.(i) = 1 then singleton_cols := i :: !singleton_cols;
    if row_len.(i) = 1 then singleton_rows := i :: !singleton_rows
  done;
  let col_max c =
    let acc = ref 0. in
    for p = 0 to col_len.(c) - 1 do
      let a = Float.abs (entry col_rows.(c).(p) c) in
      if a > !acc then acc := a
    done;
    !acc
  in
  (* Pop a valid singleton column (count 1, acceptable pivot magnitude). *)
  let rec pop_singleton_col () =
    match !singleton_cols with
    | [] -> None
    | c :: rest ->
        singleton_cols := rest;
        if col_active.(c) && col_len.(c) = 1 then begin
          let r = col_rows.(c).(0) in
          let v = entry r c in
          if Float.abs v > abs_pivot_tol then Some (r, c, v)
          else pop_singleton_col ()
        end
        else pop_singleton_col ()
  in
  let rec pop_singleton_row () =
    match !singleton_rows with
    | [] -> None
    | r :: rest ->
        singleton_rows := rest;
        if row_active.(r) && row_len.(r) = 1 then begin
          let c = row_cols.(r).(0) in
          let v = row_vals.(r).(0) in
          (* A row singleton must still respect threshold pivoting within
             its column to bound element growth. *)
          if
            Float.abs v > abs_pivot_tol
            && Float.abs v >= threshold *. col_max c
          then Some (r, c, v)
          else pop_singleton_row ()
        end
        else pop_singleton_row ()
  in
  (* Full Markowitz scan: minimize (row_count-1)*(col_count-1) over entries
     with acceptable magnitude.  Only used when no singleton exists.  Ties
     go to the first candidate in (ascending column, ascending row) order,
     so the chosen pivot does not depend on the unordered storage. *)
  let markowitz_scan step =
    let best = ref None in
    let best_cost = ref max_int in
    let best_c = ref (-1) and best_r = ref (-1) in
    for c = 0 to dim - 1 do
      if col_active.(c) then begin
        let cc = col_len.(c) in
        if cc > 0 && cc - 1 < !best_cost then begin
          let cmax = col_max c in
          let rs = col_rows.(c) in
          for p = 0 to cc - 1 do
            let r = rs.(p) in
            let cost = (row_len.(r) - 1) * (cc - 1) in
            if
              cost < !best_cost
              || (cost = !best_cost && !best_c = c && r < !best_r)
            then begin
              let v = entry r c in
              if
                Float.abs v > abs_pivot_tol
                && Float.abs v >= threshold *. cmax
              then begin
                best := Some (r, c, v);
                best_cost := cost;
                best_c := c;
                best_r := r
              end
            end
          done
        end
      end
    done;
    match !best with
    | Some pivot -> pivot
    | None -> raise (Singular step)
  in
  let pivot_rows = Array.make dim 0 and pivot_cols = Array.make dim 0 in
  let pivot_vals = Array.make dim 0. in
  let l_rows = Array.make dim [||] and l_factors = Array.make dim [||] in
  let u_cols = Array.make dim [||] and u_vals = Array.make dim [||] in
  for k = 0 to dim - 1 do
    let r_hat, c_hat, v_hat =
      match pop_singleton_col () with
      | Some p -> p
      | None -> (
          match pop_singleton_row () with
          | Some p -> p
          | None -> markowitz_scan k)
    in
    (* The pivot row (U row), pivot excluded, in column order so the
       update arithmetic below is performed in a fixed sequence. *)
    let nu = row_len.(r_hat) - 1 in
    let ucols = Array.make nu 0 and uvals = Array.make nu 0. in
    let i = ref 0 in
    for p = 0 to row_len.(r_hat) - 1 do
      let c = row_cols.(r_hat).(p) in
      if c <> c_hat then begin
        ucols.(!i) <- c;
        incr i
      end
    done;
    sort_ints ucols nu;
    scatter r_hat;
    for q = 0 to nu - 1 do
      uvals.(q) <- row_vals.(r_hat).(pos.(ucols.(q)))
    done;
    unscatter r_hat;
    (* Eliminate every other row having an entry in the pivot column, in
       ascending row order; L stores them in descending order. *)
    let ne = col_len.(c_hat) - 1 in
    let elim = Array.make ne 0 in
    let i = ref 0 in
    for p = 0 to col_len.(c_hat) - 1 do
      let r = col_rows.(c_hat).(p) in
      if r <> r_hat then begin
        elim.(!i) <- r;
        incr i
      end
    done;
    sort_ints elim ne;
    let lr = Array.make ne 0 and lf = Array.make ne 0. in
    for e = 0 to ne - 1 do
      let r = elim.(e) in
      scatter r;
      let f = row_vals.(r).(pos.(c_hat)) /. v_hat in
      lr.(ne - 1 - e) <- r;
      lf.(ne - 1 - e) <- f;
      row_remove_at r pos.(c_hat);
      col_remove c_hat r;
      for q = 0 to nu - 1 do
        let c = ucols.(q) and u = uvals.(q) in
        let p = pos.(c) in
        if p >= 0 then begin
          let next = row_vals.(r).(p) -. (f *. u) in
          if Float.abs next <= drop_tol then begin
            row_remove_at r p;
            col_remove c r;
            if col_len.(c) = 1 then singleton_cols := c :: !singleton_cols;
            if row_len.(r) = 1 then singleton_rows := r :: !singleton_rows
          end
          else row_vals.(r).(p) <- next
        end
        else begin
          let next = -.f *. u in
          if Float.abs next > drop_tol then begin
            row_append r c next;
            col_append c r
          end
        end
      done;
      unscatter r;
      if row_len.(r) = 1 then singleton_rows := r :: !singleton_rows
    done;
    (* Retire the pivot row and column. *)
    for q = 0 to nu - 1 do
      let c = ucols.(q) in
      col_remove c r_hat;
      if col_len.(c) = 1 then singleton_cols := c :: !singleton_cols
    done;
    col_remove c_hat r_hat;
    row_len.(r_hat) <- 0;
    row_active.(r_hat) <- false;
    col_active.(c_hat) <- false;
    pivot_rows.(k) <- r_hat;
    pivot_cols.(k) <- c_hat;
    pivot_vals.(k) <- v_hat;
    l_rows.(k) <- lr;
    l_factors.(k) <- lf;
    u_cols.(k) <- ucols;
    u_vals.(k) <- uvals
  done;
  let step_of_row = Array.make dim 0 and step_of_col = Array.make dim 0 in
  for k = 0 to dim - 1 do
    step_of_row.(pivot_rows.(k)) <- k;
    step_of_col.(pivot_cols.(k)) <- k
  done;
  (* Index the U entries by the step at which their column is pivoted,
     recording the owning step's pivot row directly (latest owner first),
     and the L entries by the step pivoting their row. *)
  let ucount = Array.make dim 0 and ltcount = Array.make dim 0 in
  let nnz = ref 0 in
  for k = 0 to dim - 1 do
    Array.iter
      (fun c ->
        let s = step_of_col.(c) in
        ucount.(s) <- ucount.(s) + 1)
      u_cols.(k);
    Array.iter
      (fun r ->
        let s = step_of_row.(r) in
        ltcount.(s) <- ltcount.(s) + 1)
      l_rows.(k);
    nnz := !nnz + 1 + Array.length l_rows.(k) + Array.length u_cols.(k)
  done;
  let ucol_rows = Array.map (fun n -> Array.make n 0) ucount in
  let ucol_vals = Array.map (fun n -> Array.make n 0.) ucount in
  let lt_rows = Array.map (fun n -> Array.make n 0) ltcount in
  for k = 0 to dim - 1 do
    Array.iteri
      (fun p c ->
        let s = step_of_col.(c) in
        let n = ucount.(s) - 1 in
        ucount.(s) <- n;
        ucol_rows.(s).(n) <- pivot_rows.(k);
        ucol_vals.(s).(n) <- u_vals.(k).(p))
      u_cols.(k);
    Array.iter
      (fun r ->
        let s = step_of_row.(r) in
        let n = ltcount.(s) - 1 in
        ltcount.(s) <- n;
        lt_rows.(s).(n) <- pivot_rows.(k))
      l_rows.(k)
  done;
  {
    dim;
    up =
      {
        pivot_rows;
        pivot_cols;
        pivot_vals;
        step_of_row;
        step_of_col;
        u_cols;
        u_vals;
        u_len = Array.map Array.length u_cols;
        ucol_rows;
        ucol_vals;
        ucol_len = Array.map Array.length ucol_rows;
        retired = Bytes.make dim '\000';
      };
    l_rows;
    l_factors;
    l_len = Array.map Array.length l_rows;
    lt_rows;
    lt_len = Array.map Array.length lt_rows;
    nnz = !nnz;
  }

let fill_nnz t = t.nnz

(* ---- sparse work vectors ---- *)

type vec = {
  values : float array;
  index : int array;
  mutable count : int;
  member : Bytes.t;
}

let vec n =
  {
    values = Array.make n 0.;
    index = Array.make n 0;
    count = 0;
    member = Bytes.make n '\000';
  }

let push v i =
  if Bytes.unsafe_get v.member i = '\000' then begin
    Bytes.unsafe_set v.member i '\001';
    v.index.(v.count) <- i;
    v.count <- v.count + 1
  end

let clear v =
  for p = 0 to v.count - 1 do
    let i = v.index.(p) in
    v.values.(i) <- 0.;
    Bytes.unsafe_set v.member i '\000'
  done;
  v.count <- 0

(* Past this share of the dimension, a pattern is put in order by one
   scan over the dimension rather than by sorting it. *)
let scan_share = 16

(* Keeps position [i] of the pattern at [v.index.(n)] when its value is
   nonzero (returning [n + 1]), else drops it. *)
let keep v i n =
  if v.values.(i) <> 0. then begin
    v.index.(n) <- i;
    n + 1
  end
  else begin
    v.values.(i) <- 0.;
    Bytes.unsafe_set v.member i '\000';
    n
  end

let tidy v =
  let dim = Array.length v.values in
  let n = ref 0 in
  if v.count * scan_share > dim then
    for i = 0 to dim - 1 do
      if Bytes.unsafe_get v.member i <> '\000' then n := keep v i !n
    done
  else begin
    for p = 0 to v.count - 1 do
      n := keep v v.index.(p) !n
    done;
    sort_ints v.index !n
  end;
  v.count <- !n

(* Refill the pattern of a vector whose every position may have been
   written: one ascending scan for the nonzeros. *)
let repattern v =
  Bytes.fill v.member 0 (Bytes.length v.member) '\000';
  v.count <- 0;
  for i = 0 to Array.length v.values - 1 do
    if v.values.(i) <> 0. then push v i else v.values.(i) <- 0.
  done

(* Zero a consumed input: through the positions the solve may have
   written, or wholesale after a full sweep. *)
let discard v ~through ~n ~map =
  if n < 0 then begin
    Array.fill v.values 0 (Array.length v.values) 0.;
    Bytes.fill v.member 0 (Bytes.length v.member) '\000'
  end
  else begin
    for p = 0 to v.count - 1 do
      Bytes.unsafe_set v.member v.index.(p) '\000'
    done;
    for p = 0 to n - 1 do
      v.values.(map.(through.(p))) <- 0.
    done
  end;
  v.count <- 0

(* ---- reach ---- *)

type scratch = {
  mutable stamp : int;
  mark : int array;  (* step -> stamp of the search that reached it *)
  stack : int array;
  reach : int array;  (* the reached steps *)
}

let scratch n =
  {
    stamp = 0;
    mark = Array.make n 0;
    stack = Array.make n 0;
    reach = Array.make n 0;
  }

(* A reach above this share of the steps is swept in full: past it the
   search and the sort cost more than one compare per step. *)
let sweep_share = 8

(* Seeds the reach with the steps owning the pattern of [v] (through
   [step]); -1 when that alone exceeds [limit]. *)
let seed s v step limit =
  s.stamp <- s.stamp + 1;
  if v.count > limit then -1
  else begin
    let n = ref 0 in
    for p = 0 to v.count - 1 do
      let k = step.(v.index.(p)) in
      if s.mark.(k) <> s.stamp then begin
        s.mark.(k) <- s.stamp;
        s.reach.(!n) <- k;
        incr n
      end
    done;
    !n
  end

(* Extends the reach [s.reach.(0 .. n-1)] to everything it reaches through
   [adj] (step k's entries [adj.(k).(0 .. len.(k)-1)], mapped to steps by
   [step]).  Returns the new size, or -1 once it exceeds [limit]. *)
let extend s adj len step n limit =
  if n < 0 then -1
  else begin
    let n = ref n in
    Array.blit s.reach 0 s.stack 0 !n;
    let top = ref !n in
    while !top > 0 && !n <= limit do
      decr top;
      let k = s.stack.(!top) in
      let a = adj.(k) in
      for p = 0 to len.(k) - 1 do
        let k = step.(a.(p)) in
        if s.mark.(k) <> s.stamp then begin
          s.mark.(k) <- s.stamp;
          s.reach.(!n) <- k;
          incr n;
          s.stack.(!top) <- k;
          incr top
        end
      done
    done;
    if !n > limit then -1 else !n
  end

(* Puts the reach [s.reach.(0 .. n-1)] in ascending step order. *)
let order s n =
  let dim = Array.length s.mark in
  if n * scan_share > dim then begin
    let i = ref 0 in
    for k = 0 to dim - 1 do
      if s.mark.(k) = s.stamp then begin
        s.reach.(!i) <- k;
        incr i
      end
    done
  end
  else sort_ints s.reach n

let check_dims t s a b =
  if
    Array.length s.mark < t.dim
    || Array.length a.values <> t.dim
    || Array.length b.values <> t.dim
  then invalid_arg "Lu: work vector dimension"

(* Seeds the reach with the steps owning [rows.(0 .. n-1)]; -1 for n < 0. *)
let seed_rows s rows n step =
  s.stamp <- s.stamp + 1;
  if n < 0 then -1
  else begin
    let m = ref 0 in
    for i = 0 to n - 1 do
      let k = step.(rows.(i)) in
      if s.mark.(k) <> s.stamp then begin
        s.mark.(k) <- s.stamp;
        s.reach.(!m) <- k;
        incr m
      end
    done;
    !m
  end

let live up k = Bytes.unsafe_get up.retired k = '\000'

(* ---- the passes ----

   Each pass processes the reach [s.reach.(0 .. n-1)] in step order, or
   when [n < 0] sweeps every live step of [0 .. nsteps-1] in that order,
   skipping (outside the step call) the steps that would do nothing. *)

(* b <- L b, row-indexed.  Returns the L reach (or -1: swept). *)
let l_pass t s b limit =
  let bv = b.values and up = t.up in
  let l_step k =
    let br = bv.(up.pivot_rows.(k)) in
    if br <> 0. then begin
      let rows = t.l_rows.(k) and factors = t.l_factors.(k) in
      for p = 0 to Array.length rows - 1 do
        let r = Array.unsafe_get rows p in
        bv.(r) <- bv.(r) -. (Array.unsafe_get factors p *. br)
      done
    end
  in
  let nl =
    extend s t.l_rows t.l_len up.step_of_row
      (seed s b up.step_of_row limit)
      limit
  in
  if nl >= 0 then begin
    order s nl;
    for i = 0 to nl - 1 do
      l_step s.reach.(i)
    done
  end
  else
    for k = 0 to t.dim - 1 do
      if bv.(up.pivot_rows.(k)) <> 0. then l_step k
    done;
  nl

(* Backward substitution U x = b in scatter form: once x at a step's pivot
   column is known its contribution is pushed into the earlier steps'
   rows. *)
let u_pass up nsteps s b x nu =
  let bv = b.values and xv = x.values in
  let u_step k =
    let br = bv.(up.pivot_rows.(k)) in
    if br <> 0. then begin
      let xk = br /. up.pivot_vals.(k) in
      let c = up.pivot_cols.(k) in
      xv.(c) <- xk;
      push x c;
      if xk <> 0. then begin
        let rows = up.ucol_rows.(k) and vals = up.ucol_vals.(k) in
        for p = 0 to up.ucol_len.(k) - 1 do
          let r = Array.unsafe_get rows p in
          bv.(r) <- bv.(r) -. (Array.unsafe_get vals p *. xk)
        done
      end
    end
  in
  if nu >= 0 then begin
    order s nu;
    for i = nu - 1 downto 0 do
      u_step s.reach.(i)
    done
  end
  else
    for k = nsteps - 1 downto 0 do
      if live up k && bv.(up.pivot_rows.(k)) <> 0. then u_step k
    done

(* Forward solve of U^T z = c in scatter form (a step's [u_cols] all pivot
   at later steps); [c] is consumed.  Writes [z] at the pivot rows of the
   steps it reaches, without extending its pattern.  Returns the reach. *)
let ut_pass up nsteps s c z limit =
  let cv = c.values and zv = z.values in
  let ut_step k =
    let cr = cv.(up.pivot_cols.(k)) in
    if cr <> 0. then begin
      let zk = cr /. up.pivot_vals.(k) in
      zv.(up.pivot_rows.(k)) <- zk;
      if zk <> 0. then begin
        let cols = up.u_cols.(k) and vals = up.u_vals.(k) in
        for p = 0 to up.u_len.(k) - 1 do
          let cc = Array.unsafe_get cols p in
          cv.(cc) <- cv.(cc) -. (Array.unsafe_get vals p *. zk)
        done
      end
    end
  in
  let nut =
    extend s up.u_cols up.u_len up.step_of_col
      (seed s c up.step_of_col limit)
      limit
  in
  if nut >= 0 then begin
    order s nut;
    for i = 0 to nut - 1 do
      ut_step s.reach.(i)
    done
  end
  else
    for k = 0 to nsteps - 1 do
      if live up k && cv.(up.pivot_cols.(k)) <> 0. then ut_step k
    done;
  discard c ~through:s.reach ~n:nut ~map:up.pivot_cols;
  nut

(* z <- L^T z: transposed row operations, each a dot product over the
   step's whole stored L row, in stored order; fills the pattern of [z]. *)
let lt_pass t s z nlt =
  let zv = z.values and up = t.up in
  let lt_step k =
    let rows = t.l_rows.(k) and factors = t.l_factors.(k) in
    let acc = ref 0. in
    for p = 0 to Array.length rows - 1 do
      acc :=
        !acc +. (Array.unsafe_get factors p *. zv.(Array.unsafe_get rows p))
    done;
    let r = up.pivot_rows.(k) in
    zv.(r) <- zv.(r) -. !acc
  in
  if nlt >= 0 then begin
    order s nlt;
    for i = nlt - 1 downto 0 do
      let k = s.reach.(i) in
      lt_step k;
      let r = up.pivot_rows.(k) in
      if zv.(r) <> 0. then push z r else zv.(r) <- 0.
    done
  end
  else begin
    for k = t.dim - 1 downto 0 do
      if t.l_len.(k) > 0 then lt_step k
    done;
    repattern z
  end

let steps t n1 n2 = (if n1 >= 0 then n1 else t.dim) + if n2 >= 0 then n2 else t.dim

(* ---- the solves ---- *)

let ftran t s b x =
  check_dims t s b x;
  let limit = t.dim / sweep_share in
  let nl = l_pass t s b limit in
  (* The L reach's steps are the U steps of the same rows. *)
  let nu = extend s t.up.ucol_rows t.up.ucol_len t.up.step_of_row nl limit in
  u_pass t.up t.dim s b x nu;
  discard b ~through:s.reach ~n:nu ~map:t.up.pivot_rows;
  steps t nl nu

let btran t s c z =
  check_dims t s c z;
  let limit = t.dim / sweep_share in
  let nut = ut_pass t.up t.dim s c z limit in
  let nlt = extend s t.lt_rows t.lt_len t.up.step_of_row nut limit in
  lt_pass t s z nlt;
  steps t nut nlt

let of_dense a =
  let v = vec (Array.length a) in
  Array.blit a 0 v.values 0 (Array.length a);
  repattern v;
  v

let solve t b =
  let x = vec t.dim in
  ignore (ftran t (scratch t.dim) (of_dense b) x);
  x.values

let solve_transpose t c =
  let z = vec t.dim in
  ignore (btran t (scratch t.dim) (of_dense c) z);
  z.values

(* ---- Forrest–Tomlin updates ----

   The factors are M B = U, with M the L row operations followed by the
   row etas R of the updates, and U triangular in step order.  Replacing
   the basis column in slot [s] (pivoted at step p) by a column a with
   spike M a (saved by the last FTRAN) puts the spike in U's column p.
   That column has entries below the diagonal, so step p moves to the
   end of the order: a new step takes row r_p and slot s, and step p is
   retired.  Row r_p still holds U's old row p; it is eliminated by one
   row eta r_p <- r_p - m' (rows of the later steps), with m solving
   m' U_(later steps) = U row p.  The new diagonal is what the eta leaves
   at r_p of the spike; in exact arithmetic it equals u_pp times the
   FTRAN entry of slot s, and the update is refused when it does not. *)

module Update = struct
  type factor = t

  type t = {
    base : factor;  (* L, and the factor the updates started from *)
    (* The updated U: copies of the factor's step arrays.  A row or column
       list is the factor's own array until the first write, which copies
       it with room to grow and marks it owned. *)
    mutable up : upper;
    mutable owned_rows : Bytes.t;
    mutable owned_cols : Bytes.t;
    mutable nsteps : int;  (* steps in use, retired ones included *)
    mutable updates : int;
    (* Row etas, oldest first: [r_row.(e) <- r_row.(e) - r_val.(e)' x]
       over the rows [r_idx.(e)], ascending in step order. *)
    mutable r_row : int array;
    mutable r_idx : int array array;
    mutable r_val : float array array;
    mutable n_r : int;
    mutable fill : int;
    mutable s : scratch;  (* over every step index in use *)
    seeds : int array;  (* rows to seed a reach from *)
    spike : vec;  (* row-indexed: the last FTRAN's input after L and R *)
    mutable has_spike : bool;
    col : vec;  (* slot-indexed work vector, for the eta's multipliers *)
    row : vec;  (* row-indexed *)
    mutable etas : int;  (* row etas the last solve applied *)
  }

  (* Steps and row etas held beyond the factor's own, before growing. *)
  let initial_room = 128

  let extend_to n a fill =
    let b = Array.make n fill in
    Array.blit a 0 b 0 (Int.min n (Array.length a));
    b

  let extend_bytes n b =
    let b' = Bytes.make n '\000' in
    Bytes.blit b 0 b' 0 (Int.min n (Bytes.length b));
    b'

  (* [up] with its per-step arrays copied into arrays of [cap] steps. *)
  let widen up cap =
    {
      up with
      pivot_rows = extend_to cap up.pivot_rows 0;
      pivot_cols = extend_to cap up.pivot_cols 0;
      pivot_vals = extend_to cap up.pivot_vals 0.;
      u_cols = extend_to cap up.u_cols [||];
      u_vals = extend_to cap up.u_vals [||];
      u_len = extend_to cap up.u_len 0;
      ucol_rows = extend_to cap up.ucol_rows [||];
      ucol_vals = extend_to cap up.ucol_vals [||];
      ucol_len = extend_to cap up.ucol_len 0;
      retired = extend_bytes cap up.retired;
    }

  let create (base : factor) =
    let dim = base.dim in
    let cap = dim + initial_room in
    {
      base;
      up =
        {
          (widen base.up cap) with
          step_of_row = Array.copy base.up.step_of_row;
          step_of_col = Array.copy base.up.step_of_col;
        };
      owned_rows = Bytes.make cap '\000';
      owned_cols = Bytes.make cap '\000';
      nsteps = dim;
      updates = 0;
      r_row = Array.make initial_room 0;
      r_idx = Array.make initial_room [||];
      r_val = Array.make initial_room [||];
      n_r = 0;
      fill = base.nnz;
      s = scratch cap;
      seeds = Array.make dim 0;
      spike = vec dim;
      has_spike = false;
      col = vec dim;
      row = vec dim;
      etas = 0;
    }

  (* Room for one more step and one more row eta. *)
  let grow u =
    let cap = Array.length u.up.pivot_rows in
    if u.nsteps = cap || u.n_r = Array.length u.r_row then begin
      let cap = (2 * cap) - u.base.dim and room = 2 * Array.length u.r_row in
      u.up <- widen u.up cap;
      u.owned_rows <- extend_bytes cap u.owned_rows;
      u.owned_cols <- extend_bytes cap u.owned_cols;
      u.r_row <- extend_to room u.r_row 0;
      u.r_idx <- extend_to room u.r_idx [||];
      u.r_val <- extend_to room u.r_val [||];
      u.s <- scratch cap
    end

  let count u = u.updates
  let fill_nnz u = u.fill
  let etas u = u.etas

  (* Adds row [r] to the seeds [u.seeds.(0 .. n-1)]; -1 once past
     [limit] (or already swept). *)
  let add_seed u n limit r =
    if n < 0 || n >= limit then -1
    else begin
      u.seeds.(n) <- r;
      n + 1
    end

  let ftran u b x =
    let base = u.base and up = u.up and s = u.s in
    check_dims base s b x;
    let dim = base.dim in
    let limit = dim / sweep_share and bv = b.values in
    let nl = l_pass base s b limit in
    (* The U pass starts from the rows the L reach wrote and the rows the
       row etas change. *)
    for i = 0 to nl - 1 do
      u.seeds.(i) <- base.up.pivot_rows.(s.reach.(i))
    done;
    let ns = ref nl in
    u.etas <- 0;
    for e = 0 to u.n_r - 1 do
      let idx = u.r_idx.(e) and vals = u.r_val.(e) in
      let acc = ref 0. in
      for p = 0 to Array.length idx - 1 do
        acc :=
          !acc +. (Array.unsafe_get vals p *. bv.(Array.unsafe_get idx p))
      done;
      if !acc <> 0. then begin
        let r = u.r_row.(e) in
        bv.(r) <- bv.(r) -. !acc;
        u.etas <- u.etas + 1;
        ns := add_seed u !ns limit r
      end
    done;
    (* Save the spike. *)
    let sp = u.spike in
    clear sp;
    let keep r =
      if bv.(r) <> 0. then begin
        push sp r;
        sp.values.(r) <- bv.(r)
      end
    in
    if !ns >= 0 then
      for i = 0 to !ns - 1 do
        keep u.seeds.(i)
      done
    else
      for r = 0 to dim - 1 do
        keep r
      done;
    u.has_spike <- true;
    let nu =
      extend s up.ucol_rows up.ucol_len up.step_of_row
        (seed_rows s u.seeds !ns up.step_of_row)
        limit
    in
    u_pass up u.nsteps s b x nu;
    discard b ~through:s.reach ~n:nu ~map:up.pivot_rows;
    steps base nl nu

  let btran u c z =
    let base = u.base and up = u.up and s = u.s in
    check_dims base s c z;
    let limit = base.dim / sweep_share and zv = z.values in
    let nut = ut_pass up u.nsteps s c z limit in
    for i = 0 to nut - 1 do
      u.seeds.(i) <- up.pivot_rows.(s.reach.(i))
    done;
    let ns = ref nut in
    u.etas <- 0;
    for e = u.n_r - 1 downto 0 do
      let zr = zv.(u.r_row.(e)) in
      if zr <> 0. then begin
        u.etas <- u.etas + 1;
        let idx = u.r_idx.(e) and vals = u.r_val.(e) in
        for p = 0 to Array.length idx - 1 do
          let i = Array.unsafe_get idx p in
          zv.(i) <- zv.(i) -. (Array.unsafe_get vals p *. zr);
          ns := add_seed u !ns limit i
        done
      end
    done;
    let nlt =
      extend s base.lt_rows base.lt_len base.up.step_of_row
        (seed_rows s u.seeds !ns base.up.step_of_row)
        limit
    in
    lt_pass base s z nlt;
    steps base nut nlt

  (* Step [k]'s list in [idx]/[vals]/[len], made owned and with room for
     one more entry. *)
  let own idx vals len owned k =
    let n = len.(k) in
    if Bytes.get owned k = '\000' || n = Array.length idx.(k) then begin
      let cap = (2 * n) + 4 in
      let i = Array.make cap 0 and v = Array.make cap 0. in
      Array.blit idx.(k) 0 i 0 n;
      Array.blit vals.(k) 0 v 0 n;
      idx.(k) <- i;
      vals.(k) <- v;
      Bytes.set owned k '\001'
    end

  (* Drops the entry [x] (which is there) from step [k]'s list; the last
     entry takes its place. *)
  let remove idx vals len owned k x =
    own idx vals len owned k;
    let a = idx.(k) and v = vals.(k) and last = len.(k) - 1 in
    let p = ref 0 in
    while a.(!p) <> x do
      incr p
    done;
    a.(!p) <- a.(last);
    v.(!p) <- v.(last);
    len.(k) <- last

  let add idx vals len owned k x value =
    own idx vals len owned k;
    let n = len.(k) in
    idx.(k).(n) <- x;
    vals.(k).(n) <- value;
    len.(k) <- n + 1

  (* The relative disagreement between the new diagonal and u_pp times
     the FTRAN entry above which an update is refused. *)
  let stability_tol = 1e-8

  let replace u ~slot ~alpha =
    if not u.has_spike then invalid_arg "Lu.Update.replace: no spike";
    u.has_spike <- false;
    let up = u.up and sp = u.spike and dim = u.base.dim in
    let p = up.step_of_col.(slot) in
    let rp = up.pivot_rows.(p) in
    (* The eta's multipliers: m' U_(later steps) = U row p, by the U^T
       pass, collected in ascending step order. *)
    let c = u.col and z = u.row in
    let ucols = up.u_cols.(p) and uvals = up.u_vals.(p) in
    for i = 0 to up.u_len.(p) - 1 do
      push c ucols.(i);
      c.values.(ucols.(i)) <- uvals.(i)
    done;
    let nut = ut_pass up u.nsteps u.s c z (dim / sweep_share) in
    let n = if nut >= 0 then nut else u.nsteps in
    let step i = if nut >= 0 then u.s.reach.(i) else i in
    let kept i =
      let k = step i in
      live up k && Float.abs z.values.(up.pivot_rows.(k)) > drop_tol
    in
    let nm = ref 0 in
    for i = 0 to n - 1 do
      if kept i then incr nm
    done;
    let m_rows = Array.make !nm 0 and m_vals = Array.make !nm 0. in
    let j = ref 0 in
    for i = 0 to n - 1 do
      if kept i then begin
        let r = up.pivot_rows.(step i) in
        m_rows.(!j) <- r;
        m_vals.(!j) <- z.values.(r);
        incr j
      end
    done;
    if nut >= 0 then
      for i = 0 to nut - 1 do
        z.values.(up.pivot_rows.(u.s.reach.(i))) <- 0.
      done
    else Array.fill z.values 0 dim 0.;
    (* The new diagonal: the spike at r_p after the eta. *)
    let acc = ref 0. in
    for i = 0 to !nm - 1 do
      acc := !acc +. (m_vals.(i) *. sp.values.(m_rows.(i)))
    done;
    let delta = sp.values.(rp) -. !acc in
    let expect = alpha *. up.pivot_vals.(p) in
    let stable =
      Float.abs delta > abs_pivot_tol
      && Float.abs (delta -. expect) <= stability_tol *. Float.abs delta
    in
    if stable then begin
      grow u;
      let up = u.up in
      if !nm > 0 then begin
        u.r_row.(u.n_r) <- rp;
        u.r_idx.(u.n_r) <- m_rows;
        u.r_val.(u.n_r) <- m_vals;
        u.n_r <- u.n_r + 1
      end;
      (* Retire step p: its column leaves the rows holding it, its row
         leaves the columns holding it. *)
      let old_col = up.ucol_len.(p) and old_row = up.u_len.(p) in
      for i = 0 to old_col - 1 do
        let k = up.step_of_row.(up.ucol_rows.(p).(i)) in
        remove up.u_cols up.u_vals up.u_len u.owned_rows k slot
      done;
      for i = 0 to old_row - 1 do
        let k = up.step_of_col.(up.u_cols.(p).(i)) in
        remove up.ucol_rows up.ucol_vals up.ucol_len u.owned_cols k rp
      done;
      Bytes.set up.retired p '\001';
      up.u_len.(p) <- 0;
      up.ucol_len.(p) <- 0;
      (* The new last step: row r_p, the slot, the spike as its column. *)
      let q = u.nsteps in
      let nc = ref 0 in
      for i = 0 to sp.count - 1 do
        let r = sp.index.(i) in
        if r <> rp && Float.abs sp.values.(r) > drop_tol then incr nc
      done;
      let col_rows = Array.make !nc 0 and col_vals = Array.make !nc 0. in
      let j = ref 0 in
      for i = 0 to sp.count - 1 do
        let r = sp.index.(i) in
        let v = sp.values.(r) in
        if r <> rp && Float.abs v > drop_tol then begin
          col_rows.(!j) <- r;
          col_vals.(!j) <- v;
          incr j;
          add up.u_cols up.u_vals up.u_len u.owned_rows up.step_of_row.(r)
            slot v
        end
      done;
      up.pivot_rows.(q) <- rp;
      up.pivot_cols.(q) <- slot;
      up.pivot_vals.(q) <- delta;
      up.ucol_rows.(q) <- col_rows;
      up.ucol_vals.(q) <- col_vals;
      up.ucol_len.(q) <- !nc;
      up.u_len.(q) <- 0;
      Bytes.set u.owned_cols q '\001';
      up.step_of_row.(rp) <- q;
      up.step_of_col.(slot) <- q;
      u.nsteps <- q + 1;
      u.updates <- u.updates + 1;
      u.fill <- u.fill + !nm + !nc - old_col - old_row
    end;
    clear sp;
    stable
end
