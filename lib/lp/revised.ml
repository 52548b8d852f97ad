let src = Logs.Src.create "lp.revised" ~doc:"Revised simplex"

module Log = (val Logs.src_log src : Logs.LOG)

(* Telemetry is one [Solve] trace span per call, emitted only while an
   [Obs.Trace] sink is installed; with none the only cost is the
   per-solve [Obs.Trace.active] check.  The per-solve [stats] record is
   carried by plain counters in the solver state, so it is exact
   whether or not a sink is installed. *)

type status = Optimal | Infeasible | Unbounded | Iteration_limit

let status_to_string = function
  | Optimal -> "optimal"
  | Infeasible -> "infeasible"
  | Unbounded -> "unbounded"
  | Iteration_limit -> "iteration_limit"

type stats = {
  iterations : int;
  phase1_iterations : int;
  refactorizations : int;
  degenerate_pivots : int;
  bound_flips : int;
  drift_refactorizations : int;
  growth_refactorizations : int;
  ftran_steps : int;
  ftran_etas : int;
  btran_steps : int;
  btran_etas : int;
  lu_nnz : int;
  dual_iterations : int;
  dual_fallbacks : int;
}

type basis = Problem.basis = { vars : int array; at_upper : bool array }

type result = {
  status : status;
  x : float array;
  objective : float;
  duals : float array;
  basis : basis;
  stats : stats;
  farkas : float array option;
  ray : float array option;
}

(* A basis's columns, slot by slot, with their LU factors.  [Lu.t] is
   immutable, so one factor can serve solves on several domains. *)
type factor = { f_cols : Sparse_vec.t array; f_lu : Lu.t }

type factor_cell = factor option Atomic.t

let same_bits (a : float) (b : float) =
  Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* Exact content equality of two columns: same indices, same bits. *)
let same_col (a : Sparse_vec.t) (b : Sparse_vec.t) =
  a == b
  ||
  let n = Array.length a.idx in
  n = Array.length b.idx
  &&
  let rec go p =
    p >= n
    || a.idx.(p) = b.idx.(p)
       && same_bits a.value.(p) b.value.(p)
       && go (p + 1)
  in
  go 0

let same_cols a b =
  Array.length a = Array.length b
  &&
  let rec go s = s >= Array.length a || (same_col a.(s) b.(s) && go (s + 1)) in
  go 0

(* Eta update for the product-form basis inverse.  [rows]/[vals] are the
   entries of the pivot (FTRAN) column w excluding the pivot slot. *)
type eta = { slot : int; wp : float; rows : int array; vals : float array }

let dummy_eta = { slot = 0; wp = 1.; rows = [||]; vals = [||] }

(* Size of the pricing candidate list (multiple pricing): between full
   scans, only these columns have their reduced costs kept current. *)
let cand_cap = 32

type state = {
  prob : Problem.t;
  m : int;  (* rows *)
  ntot : int;  (* structural+slack columns plus m artificials *)
  cols : Sparse_vec.t array;  (* length ntot *)
  lower : float array;
  upper : float array;
  xval : float array;
  basis : int array;  (* slot -> variable *)
  where : int array;  (* variable -> slot, or -1 if nonbasic *)
  at_upper : bool array;  (* for nonbasic variables *)
  mutable lu : Lu.t;
  lu_work : Lu.scratch;
  mutable etas : eta array;  (* oldest first; only [0, n_etas) valid *)
  mutable n_etas : int;
  mutable eta_nnz : int;  (* total off-pivot entries across live etas *)
  mutable lu_fill : int;  (* fill of the current factorization *)
  (* The live etas that read or write each slot, ascending, at
     [eta_by_slot.(s).(0 .. eta_by_slot_n.(s)-1)]: BTRAN visits only the
     etas touching a nonzero slot. *)
  eta_by_slot : int array array;
  eta_by_slot_n : int array;
  mutable eta_seen : int array;  (* eta -> stamp of the BTRAN visiting it *)
  mutable eta_stamp : int;
  (* -- work vectors, reused by every solve and cleared through their
     patterns -- *)
  fin : Lu.vec;  (* FTRAN input, row-indexed *)
  w : Lu.vec;  (* FTRAN result; after [ftran], its nonzero slots ascending *)
  bin : Lu.vec;  (* BTRAN input, slot-indexed *)
  rho : Lu.vec;  (* BTRAN result, row-indexed *)
  (* -- pricing state -- *)
  banned : Bytes.t;  (* bitset over columns: 1 = skip in pricing *)
  weight : float array;  (* Devex-style reference weights *)
  dj : float array;  (* cached reduced costs *)
  dj_epoch : int array;  (* validity stamp for [dj] entries *)
  mutable epoch : int;  (* bumped per pivot / objective change *)
  y_cache : float array;  (* duals for the pricing objective *)
  mutable y_epoch : int;
  cand : int array;  (* candidate list, length [cand_cap] *)
  cand_score : float array;  (* refill work array: the scores of [cand] *)
  mutable n_cand : int;
  mutable since_refill : int;  (* pivots taken from the current list *)
  (* -- counters / controls --
     The counters are the public per-solve [stats]. *)
  mutable iterations : int;
  mutable phase1_iterations : int;
  mutable refactorizations : int;
  mutable drift_refactorizations : int;
  mutable growth_refactorizations : int;
  mutable degenerate_pivots : int;
  mutable bound_flips : int;
  mutable ftran_steps : int;
  mutable ftran_etas : int;
  mutable btran_steps : int;
  mutable btran_etas : int;
  mutable lu_nnz : int;
  mutable dual_iterations : int;
  mutable dual_fallbacks : int;
  mutable consecutive_degenerate : int;
  mutable bland : bool;
  mutable pivots_since_drift_check : int;
  mutable loop_ticks : int;  (* loop entries, for the deadline check *)
  mutable last_ray : float array option;  (* set when Unbounded is declared *)
  deadline_at : float;  (* absolute wall-clock limit, [infinity] if none *)
  feas_tol : float;
  opt_tol : float;
  refactor_interval : int;
  bland_after : int;
}

let is_free st j =
  st.lower.(j) = neg_infinity && st.upper.(j) = infinity

let is_fixed st j = st.lower.(j) = st.upper.(j)

let is_banned st j = Bytes.unsafe_get st.banned j <> '\000'
let ban st j = Bytes.unsafe_set st.banned j '\001'
let unban st j = Bytes.unsafe_set st.banned j '\000'

(* FTRAN of column [q]: [st.w] <- B^{-1} a_q, its pattern the nonzero
   slots in ascending order (ratio-test ties and eta rows depend on that
   order).  Etas apply oldest first; one whose pivot entry is zero is
   skipped, and the others extend the pattern as they scatter. *)
let ftran st q =
  let col = st.cols.(q) and fin = st.fin and w = st.w in
  let idx = col.Sparse_vec.idx and value = col.Sparse_vec.value in
  for p = 0 to Array.length idx - 1 do
    Lu.push fin idx.(p);
    fin.values.(idx.(p)) <- value.(p)
  done;
  Lu.clear w;
  st.ftran_steps <- st.ftran_steps + Lu.ftran st.lu st.lu_work fin w;
  let v = w.values in
  for k = 0 to st.n_etas - 1 do
    let e = st.etas.(k) in
    if v.(e.slot) <> 0. then begin
      st.ftran_etas <- st.ftran_etas + 1;
      let t = v.(e.slot) /. e.wp in
      v.(e.slot) <- t;
      if t <> 0. then
        for p = 0 to Array.length e.rows - 1 do
          let r = e.rows.(p) in
          Lu.push w r;
          v.(r) <- v.(r) -. (e.vals.(p) *. t)
        done
    end
  done;
  Lu.tidy w

(* Mark for the running BTRAN every live eta older than [below] that reads
   or writes slot [s]. *)
let mark_etas st s below =
  let ks = st.eta_by_slot.(s) in
  let p = ref 0 and n = st.eta_by_slot_n.(s) in
  while !p < n && ks.(!p) < below do
    st.eta_seen.(ks.(!p)) <- st.eta_stamp;
    incr p
  done

(* BTRAN of [st.bin] (slot-indexed, consumed): [st.rho] <- B^{-T} bin.
   Etas apply newest first, visiting only those that touch a nonzero
   slot; then the LU transpose solve. *)
let btran st =
  let c = st.bin in
  let v = c.values in
  st.eta_stamp <- st.eta_stamp + 1;
  for p = 0 to c.count - 1 do
    mark_etas st c.index.(p) st.n_etas
  done;
  for k = st.n_etas - 1 downto 0 do
    if st.eta_seen.(k) = st.eta_stamp then begin
      st.btran_etas <- st.btran_etas + 1;
      let e = st.etas.(k) in
      let acc = ref 0. in
      for p = 0 to Array.length e.rows - 1 do
        acc := !acc +. (e.vals.(p) *. v.(e.rows.(p)))
      done;
      v.(e.slot) <- (v.(e.slot) -. !acc) /. e.wp;
      if Bytes.get c.member e.slot = '\000' then begin
        Lu.push c e.slot;
        mark_etas st e.slot k
      end
    end
  done;
  Lu.clear st.rho;
  st.btran_steps <- st.btran_steps + Lu.btran st.lu st.lu_work c st.rho

(* Duals of the basic costs [c.(basis)] into [dst] (dense, row-indexed). *)
let duals_into st c dst =
  for slot = 0 to st.m - 1 do
    let x = c.(st.basis.(slot)) in
    if x <> 0. then begin
      Lu.push st.bin slot;
      st.bin.values.(slot) <- x
    end
  done;
  btran st;
  Array.fill dst 0 st.m 0.;
  for p = 0 to st.rho.count - 1 do
    let i = st.rho.index.(p) in
    dst.(i) <- st.rho.values.(i)
  done

let push_eta st e =
  let cap = Array.length st.etas in
  if st.n_etas >= cap then begin
    let bigger = Array.make (2 * Int.max 1 cap) dummy_eta in
    Array.blit st.etas 0 bigger 0 st.n_etas;
    st.etas <- bigger;
    let seen = Array.make (2 * Int.max 1 cap) 0 in
    Array.blit st.eta_seen 0 seen 0 st.n_etas;
    st.eta_seen <- seen
  end;
  let k = st.n_etas in
  let index s =
    let n = st.eta_by_slot_n.(s) in
    if n = Array.length st.eta_by_slot.(s) then begin
      let bigger = Array.make ((2 * n) + 4) 0 in
      Array.blit st.eta_by_slot.(s) 0 bigger 0 n;
      st.eta_by_slot.(s) <- bigger
    end;
    st.eta_by_slot.(s).(n) <- k;
    st.eta_by_slot_n.(s) <- n + 1
  in
  index e.slot;
  Array.iter index e.rows;
  st.etas.(k) <- e;
  st.n_etas <- k + 1;
  st.eta_nnz <- st.eta_nnz + Array.length e.rows

(* The basic values implied by the nonbasic point, [B x_B = rhs - N x_N],
   solved in the state's own work vectors. *)
let recompute_basics st =
  let fin = st.fin in
  let r = fin.values and rhs = st.prob.Problem.rhs in
  for i = 0 to st.m - 1 do
    if rhs.(i) <> 0. then begin
      Lu.push fin i;
      r.(i) <- rhs.(i)
    end
  done;
  for j = 0 to st.ntot - 1 do
    if st.where.(j) < 0 && st.xval.(j) <> 0. then begin
      let a = -.st.xval.(j) and col = st.cols.(j) in
      for p = 0 to Array.length col.idx - 1 do
        let i = col.idx.(p) in
        Lu.push fin i;
        r.(i) <- r.(i) +. (a *. col.value.(p))
      done
    end
  done;
  Lu.clear st.w;
  ignore (Lu.ftran st.lu st.lu_work fin st.w);
  Array.iteri (fun slot j -> st.xval.(j) <- st.w.values.(slot)) st.basis;
  Lu.clear st.w

let refactorize st =
  let basis_cols = Array.map (fun j -> st.cols.(j)) st.basis in
  st.lu <- Lu.factor ~dim:st.m basis_cols;
  st.n_etas <- 0;
  st.eta_nnz <- 0;
  Array.fill st.eta_by_slot_n 0 st.m 0;
  st.lu_fill <- Lu.fill_nnz st.lu;
  st.lu_nnz <- st.lu_nnz + st.lu_fill;
  st.refactorizations <- st.refactorizations + 1;
  (* Invalidate pricing caches: the fresh factorization purges drift, so
     reduced costs are recomputed from scratch on the next pricing call. *)
  st.epoch <- st.epoch + 1;
  (* Recompute the basic values from scratch to purge accumulated drift. *)
  recompute_basics st

(* ---- pricing ---- *)

(* Duals for the current pricing objective [c]; cached per basis change. *)
let ensure_y st c =
  if st.y_epoch <> st.epoch then begin
    duals_into st c st.y_cache;
    st.y_epoch <- st.epoch
  end

let reduced_cost st c j =
  if st.dj_epoch.(j) = st.epoch then st.dj.(j)
  else begin
    let d = c.(j) -. Sparse_vec.dot_dense st.cols.(j) st.y_cache in
    st.dj.(j) <- d;
    st.dj_epoch.(j) <- st.epoch;
    d
  end

(* Direction in which nonbasic [j] with reduced cost [d] improves the
   objective: +1. (increase from lower/free) or -1. (decrease from
   upper/free); [None] when [j] prices out. *)
let entering_dir st j d =
  if is_free st j then
    if d < -.st.opt_tol then Some 1.
    else if d > st.opt_tol then Some (-1.)
    else None
  else if st.at_upper.(j) then if d > st.opt_tol then Some (-1.) else None
  else if d < -.st.opt_tol then Some 1.
  else None

let priceable st j = st.where.(j) < 0 && (not (is_fixed st j)) && not (is_banned st j)

(* Bland's rule: lowest-index eligible column, full scan.  Used under
   sustained degeneracy; termination matters more than pivot quality. *)
let price_bland st c =
  ensure_y st c;
  let found = ref None in
  (try
     for j = 0 to st.ntot - 1 do
       if priceable st j then
         match entering_dir st j (reduced_cost st c j) with
         | Some dir ->
             found := Some (j, dir);
             raise Exit
         | None -> ()
     done
   with Exit -> ());
  !found

(* How many pivots may be taken from one candidate list before a full
   rescan.  Stale lists pick globally poor pivots and inflate the iteration
   count; rescanning every pivot wastes the list.  A short leash keeps the
   pivot sequence near full-pricing quality while amortizing the
   whole-matrix pass over several iterations. *)
let refill_period = 4

(* Candidate-list ("multiple") pricing with Devex-style weights.

   Fast path: re-score only the candidate list — whose reduced costs are
   kept exactly current across pivots by {!apply_pivot} — and take the best
   Devex ratio d^2/w.  Every [refill_period] pivots (or when the list runs
   dry) one full scan harvests the globally best [cand_cap] eligible
   columns, so list-driven pivots stay close to full-pricing quality while
   the expensive whole-matrix pass is amortized.  Optimality is declared
   only by a full scan that finds no eligible column. *)
let price st c =
  if st.bland then price_bland st c
  else begin
    ensure_y st c;
    let best = ref None and best_score = ref 0. in
    let score j d =
      let s = d *. d /. st.weight.(j) in
      if s > !best_score then begin
        best := Some (j, d);
        best_score := s
      end
    in
    (* Harvest the candidate list, compacting out stale entries. *)
    let k = ref 0 in
    for i = 0 to st.n_cand - 1 do
      let j = st.cand.(i) in
      if priceable st j then begin
        let d = reduced_cost st c j in
        match entering_dir st j d with
        | Some _ ->
            st.cand.(!k) <- j;
            incr k;
            score j d
        | None -> ()
      end
    done;
    st.n_cand <- !k;
    if !best = None || st.n_cand < 4 || st.since_refill >= refill_period
    then begin
      (* Refill: full scan keeping the top-scoring eligible columns.  The
         list is rebuilt from scratch; [scores.(i)] mirrors [cand.(i)]. *)
      st.n_cand <- 0;
      st.since_refill <- 0;
      best := None;
      best_score := 0.;
      let scores = st.cand_score in
      let worst = ref 0 in
      for j = 0 to st.ntot - 1 do
        if priceable st j then begin
          let d = reduced_cost st c j in
          match entering_dir st j d with
          | Some _ ->
              let s = d *. d /. st.weight.(j) in
              score j d;
              if st.n_cand < cand_cap then begin
                st.cand.(st.n_cand) <- j;
                scores.(st.n_cand) <- s;
                st.n_cand <- st.n_cand + 1;
                if st.n_cand = cand_cap then begin
                  (* find the weakest entry to displace later *)
                  worst := 0;
                  for i = 1 to cand_cap - 1 do
                    if scores.(i) < scores.(!worst) then worst := i
                  done
                end
              end
              else if s > scores.(!worst) then begin
                st.cand.(!worst) <- j;
                scores.(!worst) <- s;
                worst := 0;
                for i = 1 to cand_cap - 1 do
                  if scores.(i) < scores.(!worst) then worst := i
                done
              end
          | None -> ()
        end
      done
    end;
    match !best with
    | None -> None
    | Some (j, d) -> (
        match entering_dir st j d with
        | Some dir -> Some (j, dir)
        | None -> None (* unreachable: best only holds eligible columns *))
  end

type ratio_outcome =
  | Flip
  | Pivot of { slot : int; t : float; to_upper : bool }
  | Ray  (* unbounded direction *)

(* Bounded-variable ratio test for entering variable [q] moving in
   direction [dir] with FTRAN column [w]. *)
let ratio_test st q dir w =
  let pivot_tol = 1e-9 in
  let t_flip = st.upper.(q) -. st.lower.(q) in
  let best_t = ref infinity in
  let best_slot = ref (-1) in
  let best_to_upper = ref false in
  let best_wabs = ref 0. in
  for p = 0 to st.w.count - 1 do
    let slot = st.w.index.(p) in
    let wv = w.(slot) in
    if Float.abs wv > pivot_tol then begin
      let i = st.basis.(slot) in
      let delta = dir *. wv in
      let t, to_upper =
        if delta > 0. then
          (* basic variable decreases towards its lower bound *)
          if st.lower.(i) = neg_infinity then (infinity, false)
          else (Float.max 0. (st.xval.(i) -. st.lower.(i)) /. delta, false)
        else if st.upper.(i) = infinity then (infinity, true)
        else (Float.max 0. (st.upper.(i) -. st.xval.(i)) /. -.delta, true)
      in
      let wabs = Float.abs wv in
      let better =
        if st.bland then
          t < !best_t -. 1e-12
          || (t <= !best_t +. 1e-12 && (!best_slot < 0 || i < st.basis.(!best_slot)))
        else
          t < !best_t -. 1e-12 || (t <= !best_t +. 1e-12 && wabs > !best_wabs)
      in
      if t < infinity && better then begin
        best_t := t;
        best_slot := slot;
        best_to_upper := to_upper;
        best_wabs := wabs
      end
    end
  done;
  if !best_slot < 0 && t_flip = infinity then Ray
  else if t_flip <= !best_t then Flip
  else Pivot { slot = !best_slot; t = !best_t; to_upper = !best_to_upper }

let apply_flip st q dir w =
  let range = st.upper.(q) -. st.lower.(q) in
  let delta = dir *. range in
  for p = 0 to st.w.count - 1 do
    let slot = st.w.index.(p) in
    let i = st.basis.(slot) in
    st.xval.(i) <- st.xval.(i) -. (delta *. w.(slot))
  done;
  st.at_upper.(q) <- not st.at_upper.(q);
  st.xval.(q) <- (if st.at_upper.(q) then st.upper.(q) else st.lower.(q));
  st.bound_flips <- st.bound_flips + 1
(* A bound flip keeps the basis, so cached duals and reduced costs stay
   valid: no epoch bump. *)

let update_pricing st q w slot =
  let leaving = st.basis.(slot) in
  let wp = w.(slot) in
  (* -- pricing cache maintenance (uses the OLD basis, before mutation) --
     One BTRAN of the pivot row e_r serves three purposes: the incremental
     dual update y' = y + (d_q / w_p) rho, the per-pivot reduced-cost
     update of the candidate list, and the Devex weight propagation. *)
  let next = st.epoch + 1 in
  let dq = if st.dj_epoch.(q) = st.epoch then st.dj.(q) else 0. in
  if dq <> 0. && st.y_epoch = st.epoch then begin
    Lu.push st.bin slot;
    st.bin.values.(slot) <- 1.;
    btran st;
    let rho = st.rho.values in
    let gamma_ref = Float.max 1. st.weight.(q) in
    for idx = 0 to st.n_cand - 1 do
      let j = st.cand.(idx) in
      if j <> q && st.where.(j) < 0 && st.dj_epoch.(j) = st.epoch then begin
        let alpha = Sparse_vec.dot_dense st.cols.(j) rho in
        st.dj.(j) <- st.dj.(j) -. (dq *. alpha /. wp);
        st.dj_epoch.(j) <- next;
        let wj = alpha /. wp *. (alpha /. wp) *. gamma_ref in
        if wj > st.weight.(j) then st.weight.(j) <- wj
      end
    done;
    let s = dq /. wp in
    for p = 0 to st.rho.count - 1 do
      let i = st.rho.index.(p) in
      if rho.(i) <> 0. then
        st.y_cache.(i) <- st.y_cache.(i) +. (s *. rho.(i))
    done;
    st.y_epoch <- next;
    st.dj.(leaving) <- -.s;
    st.dj_epoch.(leaving) <- next;
    st.weight.(leaving) <- Float.max 1. (gamma_ref /. (wp *. wp));
    (* The entering column leaves the candidate list; the leaving variable
       takes its place (it is the freshest nonbasic column). *)
    let replaced = ref false in
    for idx = 0 to st.n_cand - 1 do
      if st.cand.(idx) = q then begin
        st.cand.(idx) <- leaving;
        replaced := true
      end
    done;
    if (not !replaced) && st.n_cand < cand_cap then begin
      st.cand.(st.n_cand) <- leaving;
      st.n_cand <- st.n_cand + 1
    end
  end;
  st.epoch <- next;
  st.since_refill <- st.since_refill + 1

(* The pivot proper: the entering column [q] moves by [t] in direction
   [dir] along the FTRAN column [w], and the basic variable of [slot]
   leaves at its upper bound when [to_upper], else its lower; then the
   eta file grows, and a refactorization follows when it is due. *)
let pivot st q dir w slot t to_upper =
  let leaving = st.basis.(slot) in
  let wp = w.(slot) in
  for p = 0 to st.w.count - 1 do
    let s = st.w.index.(p) in
    let i = st.basis.(s) in
    st.xval.(i) <- st.xval.(i) -. (t *. dir *. w.(s))
  done;
  st.xval.(q) <- st.xval.(q) +. (t *. dir);
  (* Land the leaving variable exactly on its bound. *)
  st.xval.(leaving) <-
    (if to_upper then st.upper.(leaving) else st.lower.(leaving));
  st.where.(leaving) <- -1;
  st.at_upper.(leaving) <- to_upper;
  st.basis.(slot) <- q;
  st.where.(q) <- slot;
  (* Record the eta factor (two passes over the nonzero pattern: count,
     then fill). *)
  let nnz = ref 0 in
  for p = 0 to st.w.count - 1 do
    let s = st.w.index.(p) in
    if s <> slot && Float.abs w.(s) > 1e-12 then incr nnz
  done;
  let rows = Array.make !nnz 0 and vals = Array.make !nnz 0. in
  let idx = ref 0 in
  for p = 0 to st.w.count - 1 do
    let s = st.w.index.(p) in
    if s <> slot && Float.abs w.(s) > 1e-12 then begin
      rows.(!idx) <- s;
      vals.(!idx) <- w.(s);
      incr idx
    end
  done;
  push_eta st { slot; wp; rows; vals };
  if t <= 1e-10 then begin
    st.degenerate_pivots <- st.degenerate_pivots + 1;
    st.consecutive_degenerate <- st.consecutive_degenerate + 1
  end
  else st.consecutive_degenerate <- 0;
  if st.consecutive_degenerate > st.bland_after && not st.bland then begin
    Log.debug (fun f -> f "switching to Bland's rule after degeneracy");
    st.bland <- true
  end;
  st.pivots_since_drift_check <- st.pivots_since_drift_check + 1;
  if st.n_etas >= st.refactor_interval then refactorize st
  else if st.n_etas >= 16 && st.eta_nnz > 4 * (st.lu_fill + st.m) then begin
    (* Eta-file growth: the product-form updates have accumulated more
       fill than a fresh factorization would carry, so solves are both
       slower and numerically staler than a refactorization.  Fold them
       in early rather than waiting for the fixed interval. *)
    st.growth_refactorizations <- st.growth_refactorizations + 1;
    refactorize st
  end

let apply_pivot st q dir w slot t to_upper =
  update_pricing st q w slot;
  pivot st q dir w slot t to_upper

(* How often (in pivots) the FTRAN result is verified against the basis
   columns, and the scaled residual above which the eta file is declared
   drifted.  A fresh LU keeps residuals near machine epsilon; a checked
   residual above [drift_tol] means the product-form updates have decayed
   enough to threaten the ratio test, so we refactorize and redo the
   FTRAN before committing the pivot. *)
let drift_check_interval = 25

let drift_tol = 1e-7

(* FTRAN of column [q] with periodic numerical self-checking: every
   [drift_check_interval] pivots (while etas are live) the result [w] is
   verified directly against the problem data via ‖B w - a_q‖∞; on a
   residual spike the basis is refactorized — which also recomputes the
   basic values from scratch — and the FTRAN is retried on fresh
   factors. *)
let ftran_checked st q =
  ftran st q;
  if st.n_etas > 0 && st.pivots_since_drift_check >= drift_check_interval
  then begin
    st.pivots_since_drift_check <- 0;
    let w = st.w.values in
    let r = Array.make st.m 0. in
    for p = 0 to st.w.count - 1 do
      let s = st.w.index.(p) in
      Sparse_vec.axpy_dense w.(s) st.cols.(st.basis.(s)) r
    done;
    Sparse_vec.iter (fun i x -> r.(i) <- r.(i) -. x) st.cols.(q);
    let worst =
      Array.fold_left (fun acc v -> Float.max acc (Float.abs v)) 0. r
    in
    if worst > drift_tol *. (1. +. Sparse_vec.max_abs st.cols.(q)) then begin
      Log.debug (fun f ->
          f "FTRAN residual %.3g after %d etas: refactorizing" worst st.n_etas);
      st.drift_refactorizations <- st.drift_refactorizations + 1;
      refactorize st;
      ftran st q
    end
  end

let past_deadline st =
  st.loop_ticks <- st.loop_ticks + 1;
  st.deadline_at < infinity
  (* Check on the very first entry (an already-expired deadline must stop
     even a tiny solve) and every 32 ticks thereafter. *)
  && (st.loop_ticks = 1 || st.loop_ticks land 31 = 0)
  && Obs.Trace.now () >= st.deadline_at

(* Run the simplex loop with objective [c] until optimality or trouble.
   [phase1] only affects iteration bookkeeping. *)
let optimize st c ~phase1 ~max_iterations =
  (* A new objective invalidates every cached reduced cost and the
     candidate list. *)
  st.epoch <- st.epoch + 1;
  st.n_cand <- 0;
  let banned_list = ref [] in
  let clear_bans () =
    List.iter (unban st) !banned_list;
    banned_list := []
  in
  let rec loop () =
    if st.iterations >= max_iterations || past_deadline st
    then Iteration_limit
    else
      match price st c with
      | None -> Optimal
      | Some (q, dir) -> (
          ftran_checked st q;
          (* The ratio test, bound flips, pivot application and eta
             extraction all iterate the FTRAN pattern, not all [m] slots. *)
          let w = st.w.values in
          match ratio_test st q dir w with
          | Ray ->
              if phase1 then Optimal (* cannot happen; be safe *)
              else begin
                (* Record the improving direction as a checkable
                   certificate: the entering column moves by [dir], the
                   basic variables compensate along the FTRAN column. *)
                let ray = Array.make st.ntot 0. in
                ray.(q) <- dir;
                for p = 0 to st.w.count - 1 do
                  let s = st.w.index.(p) in
                  ray.(st.basis.(s)) <- -.dir *. w.(s)
                done;
                st.last_ray <- Some ray;
                Unbounded
              end
          | Flip ->
              st.iterations <- st.iterations + 1;
              if phase1 then st.phase1_iterations <- st.phase1_iterations + 1;
              apply_flip st q dir w;
              clear_bans ();
              loop ()
          | Pivot { slot; t; to_upper } ->
              if Float.abs w.(slot) < 1e-7 && st.n_etas > 0 then begin
                (* Numerically dubious pivot: refactorize and retry. *)
                refactorize st;
                loop ()
              end
              else if Float.abs w.(slot) < 1e-9 then begin
                (* Still tiny with a fresh factorization: avoid this column. *)
                ban st q;
                banned_list := q :: !banned_list;
                loop ()
              end
              else begin
                st.iterations <- st.iterations + 1;
                if phase1 then st.phase1_iterations <- st.phase1_iterations + 1;
                apply_pivot st q dir w slot t to_upper;
                clear_bans ();
                loop ()
              end)
  in
  let r = loop () in
  clear_bans ();
  r

(* ---- bounded dual simplex, for warm starts ---- *)

exception Dual_failed

(* Reduced costs for the costs [c] at the current basis, into [st.dj],
   for every nonbasic column that can move.  The duals land in
   [st.y_cache], left unstamped so that pricing recomputes its own. *)
let dual_prices st c =
  duals_into st c st.y_cache;
  st.y_epoch <- -1;
  for j = 0 to st.ntot - 1 do
    if st.where.(j) < 0 && not (is_fixed st j) then
      st.dj.(j) <- c.(j) -. Sparse_vec.dot_dense st.cols.(j) st.y_cache
  done

(* The entry check, on the reduced costs in [st.dj]: the start is dual
   feasible when every nonbasic column prices out at its bound, or is
   boxed and would at its other bound.  Returns those boxed columns, or
   [None] when some other column has a wrong-signed reduced cost. *)
let dual_flips st =
  let tol = st.opt_tol in
  let rec go j acc =
    if j >= st.ntot then Some acc
    else if st.where.(j) >= 0 || is_fixed st j then go (j + 1) acc
    else
      let d = st.dj.(j) in
      let wrong =
        if is_free st j then Float.abs d > tol
        else if st.at_upper.(j) then d > tol
        else d < -.tol
      in
      if not wrong then go (j + 1) acc
      else if st.lower.(j) > neg_infinity && st.upper.(j) < infinity then
        go (j + 1) (j :: acc)
      else None
  in
  go 0 []

(* How far basic variable [j] is outside its bounds (0. within
   [feas_tol]). *)
let infeasibility st j =
  let x = st.xval.(j) in
  if x < st.lower.(j) -. st.feas_tol then st.lower.(j) -. x
  else if x > st.upper.(j) +. st.feas_tol then x -. st.upper.(j)
  else 0.

let primal_feasible st =
  Array.for_all (fun j -> infeasibility st j = 0.) st.basis

(* The dual simplex from a dual feasible basis, until no basic variable
   is out of bounds ([true]: phase 2 then proves optimality) or the
   iteration/time budget runs out ([false]).  Each iteration:
   - the leaving row [r] is the largest infeasibility² / dual Devex
     weight;
   - [rho = B^-T e_r] by BTRAN, and the pivot row [alpha_j = rho' a_j]
     over the nonbasic columns from the row-wise copy of A;
   - a Harris ratio test picks the entering column: pass 1 bounds the
     dual step with every reduced cost relaxed by [opt_tol], pass 2 takes
     the largest [|alpha_j|] whose ratio is within that bound;
   - the reduced costs move along the pivot row, the FTRAN column of the
     entering column updates the dual Devex weights, and {!pivot} takes
     the primal step that lands the leaving variable on its violated
     bound.
   Raises [Dual_failed] on a dual-unbounded row (no eligible entering
   column), on an FTRAN column that disagrees with the pivot row under a
   fresh factorization, and when the pivots exceed [2m + 100]. *)
let dual_simplex st (rows : Problem.rows) c ~max_iterations =
  let m = st.m in
  let piv_tol = 1e-9 and tol = st.opt_tol in
  let cap = (2 * m) + 100 in
  let dw = Array.make m 1. in
  let alpha = Array.make st.ntot 0. in
  let mark = Array.make st.ntot (-1) and pattern = Array.make st.ntot 0 in
  let count = ref 0 and stamp = ref 0 in
  let priced_at = ref st.refactorizations in
  (* Whether nonbasic [j] bounds the dual step, with [a] the pivot row
     entry signed so that the step is positive. *)
  let eligible j a =
    Float.abs a > piv_tol
    && (not (is_fixed st j))
    && (is_free st j || if st.at_upper.(j) then a < 0. else a > 0.)
  in
  let rec loop () =
    if st.iterations >= max_iterations || past_deadline st then false
    else begin
      (* A refactorization recomputed the basic values; refresh the
         reduced costs from the fresh factors too. *)
      if st.refactorizations <> !priced_at then begin
        dual_prices st c;
        priced_at := st.refactorizations
      end;
      let r = ref (-1) and best = ref 0. in
      for slot = 0 to m - 1 do
        let inf = infeasibility st st.basis.(slot) in
        if inf > 0. then begin
          let score = inf *. inf /. dw.(slot) in
          if score > !best then begin
            best := score;
            r := slot
          end
        end
      done;
      if !r < 0 then true
      else if st.dual_iterations >= cap then raise Dual_failed
      else iterate !r
    end
  and iterate r =
    let p = st.basis.(r) in
    let to_upper = st.xval.(p) > st.upper.(p) in
    let sign = if to_upper then 1. else -1. in
    Lu.push st.bin r;
    st.bin.values.(r) <- 1.;
    btran st;
    incr stamp;
    count := 0;
    let rho = st.rho in
    for k = 0 to rho.count - 1 do
      let i = rho.index.(k) in
      let ri = rho.values.(i) in
      if ri <> 0. then
        for e = rows.row_start.(i) to rows.row_start.(i + 1) - 1 do
          let j = rows.row_col.(e) in
          if st.where.(j) < 0 then begin
            if mark.(j) <> !stamp then begin
              mark.(j) <- !stamp;
              alpha.(j) <- 0.;
              pattern.(!count) <- j;
              incr count
            end;
            alpha.(j) <- alpha.(j) +. (ri *. rows.row_val.(e))
          end
        done
    done;
    let bound = ref infinity in
    for k = 0 to !count - 1 do
      let j = pattern.(k) in
      let a = sign *. alpha.(j) in
      if eligible j a then begin
        let b = (if a > 0. then st.dj.(j) +. tol else st.dj.(j) -. tol) /. a in
        if b < !bound then bound := b
      end
    done;
    if !bound = infinity then raise Dual_failed;
    let q = ref (-1) and q_abs = ref 0. in
    for k = 0 to !count - 1 do
      let j = pattern.(k) in
      let a = sign *. alpha.(j) in
      if eligible j a && st.dj.(j) /. a <= !bound && Float.abs a > !q_abs
      then begin
        q := j;
        q_abs := Float.abs a
      end
    done;
    let q = !q in
    let aq = alpha.(q) in
    ftran_checked st q;
    let w = st.w.values in
    let wr = w.(r) in
    if
      Float.abs wr <= piv_tol
      || Float.abs (wr -. aq) > 1e-6 *. Float.max 1. (Float.abs aq)
    then begin
      (* The row and the column disagree: refactorize and retry, or give
         up when the factors are already fresh. *)
      if st.n_etas = 0 then raise Dual_failed;
      refactorize st;
      loop ()
    end
    else begin
      let theta = st.dj.(q) /. aq in
      for k = 0 to !count - 1 do
        let j = pattern.(k) in
        st.dj.(j) <- st.dj.(j) -. (theta *. alpha.(j))
      done;
      st.dj.(q) <- 0.;
      st.dj.(p) <- -.theta;
      let gr = dw.(r) in
      for k = 0 to st.w.count - 1 do
        let i = st.w.index.(k) in
        if i <> r then begin
          let ratio = w.(i) /. wr in
          let g = ratio *. ratio *. gr in
          if g > dw.(i) then dw.(i) <- g
        end
      done;
      dw.(r) <- Float.max 1. (gr /. (wr *. wr));
      let target = if to_upper then st.upper.(p) else st.lower.(p) in
      let step = (st.xval.(p) -. target) /. wr in
      st.iterations <- st.iterations + 1;
      st.dual_iterations <- st.dual_iterations + 1;
      pivot st q (if step >= 0. then 1. else -1.) w r (Float.abs step) to_upper;
      loop ()
    end
  in
  loop ()

(* A dual attempt's work, carried into the fresh state that replaces it
   ([into] was built from the same token and factors). *)
let absorb ~into st =
  into.iterations <- st.iterations;
  into.refactorizations <- st.refactorizations;
  into.drift_refactorizations <- st.drift_refactorizations;
  into.growth_refactorizations <- st.growth_refactorizations;
  into.degenerate_pivots <- st.degenerate_pivots;
  into.bound_flips <- st.bound_flips;
  into.ftran_steps <- st.ftran_steps;
  into.ftran_etas <- st.ftran_etas;
  into.btran_steps <- st.btran_steps;
  into.btran_etas <- st.btran_etas;
  into.lu_nnz <- st.lu_nnz;
  into.dual_iterations <- st.dual_iterations;
  into.loop_ticks <- st.loop_ticks;
  into.dual_fallbacks <- 1

let stats_of st =
  {
    iterations = st.iterations;
    phase1_iterations = st.phase1_iterations;
    refactorizations = st.refactorizations;
    drift_refactorizations = st.drift_refactorizations;
    growth_refactorizations = st.growth_refactorizations;
    degenerate_pivots = st.degenerate_pivots;
    bound_flips = st.bound_flips;
    ftran_steps = st.ftran_steps;
    ftran_etas = st.ftran_etas;
    btran_steps = st.btran_steps;
    btran_etas = st.btran_etas;
    lu_nnz = st.lu_nnz;
    dual_iterations = st.dual_iterations;
    dual_fallbacks = st.dual_fallbacks;
  }

(* A failed warm attempt's work added to the cold solve that replaced
   it, as [absorb] carries a dual attempt's into its phase 1. *)
let add_stats (a : stats) (b : stats) =
  {
    iterations = a.iterations + b.iterations;
    phase1_iterations = a.phase1_iterations + b.phase1_iterations;
    refactorizations = a.refactorizations + b.refactorizations;
    drift_refactorizations = a.drift_refactorizations + b.drift_refactorizations;
    growth_refactorizations =
      a.growth_refactorizations + b.growth_refactorizations;
    degenerate_pivots = a.degenerate_pivots + b.degenerate_pivots;
    bound_flips = a.bound_flips + b.bound_flips;
    ftran_steps = a.ftran_steps + b.ftran_steps;
    ftran_etas = a.ftran_etas + b.ftran_etas;
    btran_steps = a.btran_steps + b.btran_steps;
    btran_etas = a.btran_etas + b.btran_etas;
    lu_nnz = a.lu_nnz + b.lu_nnz;
    dual_iterations = a.dual_iterations + b.dual_iterations;
    dual_fallbacks = a.dual_fallbacks + b.dual_fallbacks;
  }

(* ---- state construction ---- *)

exception Warm_start_failed

let make_state ?(bland_after = 2000) ~feas_tol ~opt_tol ~refactor_interval
    ~deadline_at prob lu basis where xval at_upper lower upper cols ntot =
  let m = prob.Problem.nrows in
  {
    prob;
    m;
    ntot;
    cols;
    lower;
    upper;
    xval;
    basis;
    where;
    at_upper;
    lu;
    lu_work = Lu.scratch m;
    etas = Array.make 16 dummy_eta;
    n_etas = 0;
    eta_nnz = 0;
    lu_fill = Lu.fill_nnz lu;
    eta_by_slot = Array.make m [||];
    eta_by_slot_n = Array.make m 0;
    eta_seen = Array.make 16 0;
    eta_stamp = 0;
    fin = Lu.vec m;
    w = Lu.vec m;
    bin = Lu.vec m;
    rho = Lu.vec m;
    banned = Bytes.make ntot '\000';
    weight = Array.make ntot 1.;
    dj = Array.make ntot 0.;
    dj_epoch = Array.make ntot (-1);
    epoch = 0;
    y_cache = Array.make m 0.;
    y_epoch = -1;
    cand = Array.make cand_cap (-1);
    cand_score = Array.make cand_cap 0.;
    n_cand = 0;
    since_refill = 0;
    iterations = 0;
    phase1_iterations = 0;
    refactorizations = 0;
    drift_refactorizations = 0;
    growth_refactorizations = 0;
    degenerate_pivots = 0;
    bound_flips = 0;
    ftran_steps = 0;
    ftran_etas = 0;
    btran_steps = 0;
    btran_etas = 0;
    lu_nnz = Lu.fill_nnz lu;
    dual_iterations = 0;
    dual_fallbacks = 0;
    consecutive_degenerate = 0;
    bland = false;
    pivots_since_drift_check = 0;
    loop_ticks = 0;
    last_ray = None;
    deadline_at;
    feas_tol;
    opt_tol;
    refactor_interval;
    bland_after;
  }

let solve_factored ?(max_iterations = 200_000) ?deadline ?(feas_tol = 1e-7)
    ?(opt_tol = 1e-7) ?(refactor_interval = 128) ?(bland_after = 2000)
    ?basis:warm ?cell prob =
  let matrix = Problem.matrix prob in
  let deadline_at =
    match deadline with
    | None -> infinity
    | Some d -> Obs.Trace.now () +. Float.max 0. d
  in
  let m = prob.Problem.nrows and n = prob.Problem.ncols in
  let ntot = n + m in
  let factor_reused = ref false in
  (* The factor handed on with the final basis: the state's own LU
     whenever no eta sits on top of it (a 0-pivot solve, or a
     refactorization as the last step). *)
  let final_factor st =
    if st.n_etas > 0 then None
    else
      Some { f_cols = Array.map (fun j -> st.cols.(j)) st.basis; f_lu = st.lu }
  in
  let finish ?farkas st status =
    let x = Array.sub st.xval 0 n in
    let objective = Problem.objective_value prob x in
    let duals = Array.make m 0. in
    let c = Array.make ntot 0. in
    Array.blit prob.Problem.obj 0 c 0 n;
    duals_into st c duals;
    let basis =
      {
        vars = Array.map (fun j -> if j < n then j else -1) st.basis;
        at_upper = Array.sub st.at_upper 0 n;
      }
    in
    let ray =
      match status with
      | Unbounded -> Option.map (fun r -> Array.sub r 0 n) st.last_ray
      | _ -> None
    in
    ( {
        status;
        x;
        objective;
        duals;
        basis;
        stats = stats_of st;
        farkas = (if status = Infeasible then farkas else None);
        ray;
      },
      final_factor st )
  in
  let phase2_costs () =
    let c = Array.make ntot 0. in
    Array.blit prob.Problem.obj 0 c 0 n;
    c
  in
  let phase2 st =
    match optimize st (phase2_costs ()) ~phase1:false ~max_iterations with
    | Optimal -> finish st Optimal
    | Unbounded -> finish st Unbounded
    | Iteration_limit -> finish st Iteration_limit
    | Infeasible -> assert false
  in
  let cols = Problem.with_identity matrix in
  let fresh_arrays () =
    let lower = Array.make ntot 0. and upper = Array.make ntot 0. in
    Array.blit prob.Problem.lower 0 lower 0 n;
    Array.blit prob.Problem.upper 0 upper 0 n;
    (lower, upper)
  in
  (* ---- cold start: bound-feasible nonbasic point, hinted or artificial
     basis, artificial-variable phase 1 when the start is infeasible ---- *)
  let solve_cold () =
    let lower, upper = fresh_arrays () in
    let xval = Array.make ntot 0. in
    (* Nonbasic starting point: finite lower bound if any, else finite upper,
       else 0 for free variables. *)
    let at_upper = Array.make ntot false in
    for j = 0 to n - 1 do
      if lower.(j) > neg_infinity then xval.(j) <- lower.(j)
      else if upper.(j) < infinity then begin
        xval.(j) <- upper.(j);
        at_upper.(j) <- true
      end
      else xval.(j) <- 0.
    done;
    (* Residual with hinted columns held at zero. *)
    let hint =
      match prob.Problem.basis_hint with
      | Some h -> h
      | None -> Array.make m (-1)
    in
    let hinted = Array.make n false in
    Array.iter (fun j -> if j >= 0 then hinted.(j) <- true) hint;
    let residual = Array.copy prob.Problem.rhs in
    for j = 0 to n - 1 do
      if (not hinted.(j)) && xval.(j) <> 0. then
        Sparse_vec.axpy_dense (-.xval.(j)) cols.(j) residual
    done;
    let basis = Array.make m (-1) in
    let where = Array.make ntot (-1) in
    let need_phase1 = ref false in
    for i = 0 to m - 1 do
      let r = residual.(i) in
      let h = hint.(i) in
      if h >= 0 && lower.(h) -. feas_tol <= r && r <= upper.(h) +. feas_tol
      then begin
        basis.(i) <- h;
        xval.(h) <- r;
        (* artificial for this row stays nonbasic, fixed at zero *)
        lower.(n + i) <- 0.;
        upper.(n + i) <- 0.
      end
      else begin
        (* Use the artificial; if there was a hint column it stays nonbasic at
           its initial bound value of 0 (all slack bounds include 0). *)
        basis.(i) <- n + i;
        xval.(n + i) <- r;
        if r >= 0. then begin
          lower.(n + i) <- 0.;
          upper.(n + i) <- infinity
        end
        else begin
          lower.(n + i) <- neg_infinity;
          upper.(n + i) <- 0.
        end;
        if Float.abs r > feas_tol then need_phase1 := true
      end
    done;
    Array.iteri (fun slot j -> where.(j) <- slot) basis;
    let lu = Lu.factor ~dim:m (Array.map (fun j -> cols.(j)) basis) in
    let st =
      make_state ~bland_after ~feas_tol ~opt_tol ~refactor_interval
        ~deadline_at prob lu basis where xval at_upper lower upper cols ntot
    in
    if not !need_phase1 then phase2 st
    else begin
      (* Phase 1: minimize the total artificial infeasibility. *)
      let c1 = Array.make ntot 0. in
      for i = 0 to m - 1 do
        if st.where.(n + i) >= 0 then
          c1.(n + i) <- (if st.xval.(n + i) >= 0. then 1. else -1.)
        else c1.(n + i) <- 1.
      done;
      match optimize st c1 ~phase1:true ~max_iterations with
      | Iteration_limit -> finish st Iteration_limit
      | Unbounded -> assert false
      | Infeasible -> assert false
      | Optimal ->
          let infeas = ref 0. in
          for i = 0 to m - 1 do
            infeas := !infeas +. Float.abs st.xval.(n + i)
          done;
          if !infeas > Float.max 1e-6 (st.feas_tol *. float_of_int m) then begin
            (* The phase-1 duals are a Farkas certificate: at the phase-1
               optimum every problem column's reduced cost [-y'a_j] prices
               out against its bound, so [y'b - sup y'Ax] equals the
               residual infeasibility, which is positive. *)
            let farkas = Array.make m 0. in
            duals_into st c1 farkas;
            finish ~farkas st Infeasible
          end
          else begin
            (* Pin all artificials to zero and re-optimize the true cost. *)
            for i = 0 to m - 1 do
              st.lower.(n + i) <- 0.;
              st.upper.(n + i) <- 0.;
              if st.where.(n + i) < 0 then begin
                st.xval.(n + i) <- 0.;
                st.at_upper.(n + i) <- false
              end
            done;
            phase2 st
          end
    end
  in
  (* ---- warm start: adopt a prior basis; a primal feasible one goes to
     phase 2, a dual feasible one to the dual simplex, any other to a
     bound-relaxation phase 1; fall back to cold on any trouble ---- *)
  (* The warm attempt's latest state, whose counters a cold fallback
     carries. *)
  let attempt = ref None in
  let solve_warm wb =
    let basis = Array.make m (-1) in
    (* Artificials default to nonbasic, fixed at zero. *)
    for i = 0 to m - 1 do
      let j = wb.vars.(i) in
      basis.(i) <- (if j >= 0 then j else n + i)
    done;
    (* The token's factor is reused when its columns are bit-equal to this
       basis's; otherwise factor and fill the (still empty) cell.  A race
       between domains costs at most a duplicate factorization. *)
    let bcols = Array.map (fun j -> cols.(j)) basis in
    let lu =
      match Option.bind cell Atomic.get with
      | Some f when same_cols f.f_cols bcols ->
          factor_reused := true;
          f.f_lu
      | _ -> (
          match Lu.factor ~dim:m bcols with
          | lu ->
              Option.iter
                (fun c ->
                  ignore
                    (Atomic.compare_and_set c None
                       (Some { f_cols = bcols; f_lu = lu })))
                cell;
              lu
          | exception Lu.Singular _ -> raise Warm_start_failed)
    in
    (* The state of the token's basis, its basic values recomputed. *)
    let start () =
      let lower, upper = fresh_arrays () in
      let xval = Array.make ntot 0. in
      let at_upper = Array.make ntot false in
      let basis = Array.copy basis in
      let where = Array.make ntot (-1) in
      Array.iteri (fun slot j -> where.(j) <- slot) basis;
      (* Nonbasic structurals sit at the recorded bound. *)
      for j = 0 to n - 1 do
        if where.(j) < 0 then
          if wb.at_upper.(j) && upper.(j) < infinity then begin
            xval.(j) <- upper.(j);
            at_upper.(j) <- true
          end
          else if lower.(j) > neg_infinity then xval.(j) <- lower.(j)
          else if upper.(j) < infinity then begin
            xval.(j) <- upper.(j);
            at_upper.(j) <- true
          end
          else xval.(j) <- 0.
      done;
      let st =
        make_state ~bland_after ~feas_tol ~opt_tol ~refactor_interval
          ~deadline_at prob lu basis where xval at_upper lower upper cols ntot
      in
      attempt := Some st;
      recompute_basics st;
      st
    in
    (* Repair: drive each violating basic back towards its bound.  The
       relaxation keeps the basis factorizable and needs no artificial
       columns; any residual violation afterwards means the warm basis
       was a bad guide, and the cold path decides feasibility. *)
    let repair st =
      let relaxed = ref [] in
      let c1 = Array.make ntot 0. in
      Array.iter
        (fun j ->
          if st.xval.(j) > st.upper.(j) +. feas_tol then begin
            relaxed := (j, st.lower.(j), st.upper.(j)) :: !relaxed;
            st.upper.(j) <- infinity;
            c1.(j) <- 1.
          end
          else if st.xval.(j) < st.lower.(j) -. feas_tol then begin
            relaxed := (j, st.lower.(j), st.upper.(j)) :: !relaxed;
            st.lower.(j) <- neg_infinity;
            c1.(j) <- -1.
          end)
        st.basis;
      match optimize st c1 ~phase1:true ~max_iterations with
      | Iteration_limit -> finish st Iteration_limit
      | Unbounded | Infeasible -> raise Warm_start_failed
      | Optimal ->
          List.iter
            (fun (j, lo, hi) ->
              st.lower.(j) <- lo;
              st.upper.(j) <- hi)
            !relaxed;
          let ok =
            List.for_all
              (fun (j, _, _) ->
                st.xval.(j) >= st.lower.(j) -. feas_tol
                && st.xval.(j) <= st.upper.(j) +. feas_tol)
              !relaxed
          in
          if not ok then raise Warm_start_failed else phase2 st
    in
    let st = start () in
    if primal_feasible st then phase2 st
    else begin
      (* One BTRAN and one pass over the reduced costs decide the path;
         the phase-1 path recomputes everything it reads. *)
      let c = phase2_costs () in
      dual_prices st c;
      match dual_flips st with
      | None -> repair st
      | Some flips -> (
          List.iter
            (fun j ->
              st.at_upper.(j) <- not st.at_upper.(j);
              st.xval.(j) <- (if st.at_upper.(j) then st.upper.(j) else st.lower.(j));
              st.bound_flips <- st.bound_flips + 1)
            flips;
          if flips <> [] then recompute_basics st;
          match dual_simplex st (Problem.rows matrix) c ~max_iterations with
          | true -> phase2 st
          | false -> finish st Iteration_limit
          | exception Dual_failed ->
              Log.debug (fun f ->
                  f "dual simplex gave up after %d pivots: phase 1 instead"
                    st.dual_iterations);
              let fresh = start () in
              absorb ~into:fresh st;
              repair fresh)
    end
  in
  let warm_usable wb =
    Array.length wb.vars = m
    && Array.length wb.at_upper = n
    && Problem.compatible_basis prob wb.vars
  in
  (* A usable token, else the problem's start (checked by [Problem.matrix]
     above), goes through the warm path; its failure, or neither, means
     the all-slack cold path.  The span's [start] says which one ran. *)
  let dispatch () =
    let first =
      match warm with
      | Some wb when warm_usable wb -> Some (wb, "warm")
      | Some _ | None -> Option.map (fun s -> (s, "crash")) prob.Problem.start
    in
    match first with
    | Some (wb, how) -> (
        try (solve_warm wb, how)
        with Warm_start_failed ->
          factor_reused := false;
          let res, factor = solve_cold () in
          let res =
            match !attempt with
            | None -> res
            | Some st -> { res with stats = add_stats (stats_of st) res.stats }
          in
          ((res, factor), "cold"))
    | None -> (solve_cold (), "cold")
  in
  let finished (res, factor) = (res, Atomic.make factor) in
  if not (Obs.Trace.active ()) then finished (fst (dispatch ()))
  else begin
    let t0 = Obs.Trace.now () in
    let (res, _) as out, start = dispatch () in
    let dur = Obs.Trace.now () -. t0 in
    Obs.Trace.emit Obs.Trace.Solve ~name:"lp.revised" ~start_s:t0
      ~dur_s:dur
      [
        ("status", Obs.Trace.Str (status_to_string res.status));
        ("rows", Obs.Trace.Int m);
        ("cols", Obs.Trace.Int n);
        ("iterations", Obs.Trace.Int res.stats.iterations);
        ("phase1_iterations", Obs.Trace.Int res.stats.phase1_iterations);
        ("refactorizations", Obs.Trace.Int res.stats.refactorizations);
        ( "drift_refactorizations",
          Obs.Trace.Int res.stats.drift_refactorizations );
        ( "growth_refactorizations",
          Obs.Trace.Int res.stats.growth_refactorizations );
        ("degenerate_pivots", Obs.Trace.Int res.stats.degenerate_pivots);
        ("bound_flips", Obs.Trace.Int res.stats.bound_flips);
        ("ftran_steps", Obs.Trace.Int res.stats.ftran_steps);
        ("ftran_etas", Obs.Trace.Int res.stats.ftran_etas);
        ("btran_steps", Obs.Trace.Int res.stats.btran_steps);
        ("btran_etas", Obs.Trace.Int res.stats.btran_etas);
        ("lu_nnz", Obs.Trace.Int res.stats.lu_nnz);
        ("dual_iterations", Obs.Trace.Int res.stats.dual_iterations);
        ("dual_fallbacks", Obs.Trace.Int res.stats.dual_fallbacks);
        ("start", Obs.Trace.Str start);
        ("factor_reused", Obs.Trace.Bool !factor_reused);
      ];
    finished out
  end

let solve ?max_iterations ?deadline ?feas_tol ?opt_tol ?refactor_interval
    ?bland_after ?basis prob =
  fst
    (solve_factored ?max_iterations ?deadline ?feas_tol ?opt_tol
       ?refactor_interval ?bland_after ?basis prob)

let cell_factor cell bcols =
  match Atomic.get cell with
  | Some f when same_cols f.f_cols bcols -> f.f_lu
  | _ ->
      let lu = Lu.factor ~dim:(Array.length bcols) bcols in
      ignore (Atomic.compare_and_set cell None (Some { f_cols = bcols; f_lu = lu }));
      lu
