(* Differential tests of the hypersparse simplex kernel.

   - Each LU solve direction has a reach path (a sparse right-hand side
     touches few elimination steps) and a full-sweep path (taken when the
     pattern is a large share of the dimension).  Both perform the same
     floating-point operations, so on the same numbers they must agree bit
     for bit; a pattern padded with explicit zeros forces the sweep.
   - A factorization under Forrest–Tomlin column replacements solves
     like a fresh factorization of the current basis, and its reach and
     sweep paths agree bit for bit too.
   - Warm re-solves after rhs and bound perturbations, run with a short
     refactorization interval so the updates are folded into a fresh
     factor many times, must reach the cold solve's certified objective. *)

let bits a = Array.map Int64.bits_of_float a

(* A column with a dominant entry in row [d] and up to three small
   entries elsewhere. *)
let random_column rand ~dim d =
  let sign = if Random.State.bool rand then 1. else -1. in
  let extra =
    List.init (Random.State.int rand 4) (fun _ ->
        (Random.State.int rand dim, Random.State.float rand 2. -. 1.))
    |> List.filter (fun (r, _) -> r <> d)
  in
  Lp.Sparse_vec.of_assoc ((d, sign *. (2. +. Random.State.float rand 2.)) :: extra)

(* A random nonsingular basis of dimension [dim]: a share [slack] of unit
   columns, the rest [random_column]s on a permuted diagonal. *)
let random_basis rand ~dim ~slack =
  let perm = Array.init dim Fun.id in
  for i = dim - 1 downto 1 do
    let j = Random.State.int rand (i + 1) in
    let x = perm.(i) in
    perm.(i) <- perm.(j);
    perm.(j) <- x
  done;
  Array.init dim (fun j ->
      let d = perm.(j) in
      if Random.State.float rand 1. < slack then Lp.Sparse_vec.of_assoc [ (d, 1.) ]
      else random_column rand ~dim d)

(* [count] random nonzeros in a vector of dimension [dim]. *)
let sparse_rhs rand ~dim ~count =
  let b = Array.make dim 0. in
  for _ = 1 to count do
    b.(Random.State.int rand dim) <- Random.State.float rand 4. -. 2.
  done;
  b

(* Load [b] into a work vector: its nonzeros only, or every position. *)
let load ~full b =
  let v = Lp.Lu.vec (Array.length b) in
  Array.iteri
    (fun i x ->
      if full || x <> 0. then begin
        Lp.Lu.push v i;
        v.Lp.Lu.values.(i) <- x
      end)
    b;
  v

(* Max-norm residual of [B x - b] for the basis given by its columns. *)
let residual cols x b =
  let r = Array.copy b in
  Array.iteri (fun j col -> Lp.Sparse_vec.axpy_dense (-.x.(j)) col r) cols;
  Array.fold_left (fun acc v -> Float.max acc (Float.abs v)) 0. r

(* ... and of [B^T z - c]. *)
let residual_t cols z c =
  let worst = ref 0. in
  Array.iteri
    (fun j col ->
      worst :=
        Float.max !worst (Float.abs (Lp.Sparse_vec.dot_dense col z -. c.(j))))
    cols;
  !worst

let test_reach_matches_sweep () =
  let rand = Random.State.make [| 20060403 |] in
  let reach_used = ref 0 and cases = ref 0 in
  List.iter
    (fun (dim, slack) ->
      for _ = 1 to 20 do
        let cols = random_basis rand ~dim ~slack in
        let lu = Lp.Lu.factor ~dim cols in
        let s = Lp.Lu.scratch dim in
        for count = 1 to 3 do
          let b = sparse_rhs rand ~dim ~count in
          let solve dir ~full =
            let out = Lp.Lu.vec dim in
            let steps =
              (match dir with `F -> Lp.Lu.ftran | `T -> Lp.Lu.btran)
                lu s (load ~full b) out
            in
            (steps, out)
          in
          List.iter
            (fun dir ->
              incr cases;
              let steps, sparse = solve dir ~full:false in
              let sweep_steps, dense = solve dir ~full:true in
              Alcotest.(check int) "full pattern sweeps" (2 * dim) sweep_steps;
              if steps < 2 * dim then incr reach_used;
              Alcotest.(check (array int64))
                "reach = sweep, bit for bit" (bits dense.Lp.Lu.values)
                (bits sparse.Lp.Lu.values);
              (* The pattern lists every nonzero of the result. *)
              let listed = Array.make dim false in
              for p = 0 to sparse.Lp.Lu.count - 1 do
                listed.(sparse.Lp.Lu.index.(p)) <- true
              done;
              Array.iteri
                (fun i x ->
                  if x <> 0. && not listed.(i) then
                    Alcotest.failf "nonzero %d missing from the pattern" i)
                sparse.Lp.Lu.values;
              let res =
                match dir with
                | `F -> residual cols sparse.Lp.Lu.values b
                | `T -> residual_t cols sparse.Lp.Lu.values b
              in
              if res > 1e-9 then
                Alcotest.failf "residual %g (dim %d, slack %.2f)" res dim slack)
            [ `F; `T ];
          (* The dense wrappers are the same solves. *)
          Alcotest.(check (array int64))
            "solve = ftran" (bits (Lp.Lu.solve lu b))
            (bits (snd (solve `F ~full:false)).Lp.Lu.values);
          Alcotest.(check (array int64))
            "solve_transpose = btran"
            (bits (Lp.Lu.solve_transpose lu b))
            (bits (snd (solve `T ~full:false)).Lp.Lu.values)
        done
      done)
    [ (60, 0.5); (200, 0.8); (400, 0.95); (400, 0.3) ];
  if 2 * !reach_used < !cases then
    Alcotest.failf "the reach path ran on only %d of %d solves" !reach_used
      !cases

(* The work vectors are reusable: a consumed input and a cleared output
   are all zero again, with empty patterns. *)
let test_buffers_cleared () =
  let rand = Random.State.make [| 7 |] in
  let dim = 120 in
  let cols = random_basis rand ~dim ~slack:0.7 in
  let lu = Lp.Lu.factor ~dim cols in
  let s = Lp.Lu.scratch dim in
  let b = load ~full:false (sparse_rhs rand ~dim ~count:3) in
  let x = Lp.Lu.vec dim in
  ignore (Lp.Lu.ftran lu s b x);
  let zero v =
    Array.for_all (fun x -> Int64.equal (Int64.bits_of_float x) 0L) v.Lp.Lu.values
    && v.Lp.Lu.count = 0
    && Bytes.for_all (fun c -> c = '\000') v.Lp.Lu.member
  in
  Alcotest.(check bool) "input consumed" true (zero b);
  Lp.Lu.clear x;
  Alcotest.(check bool) "output cleared" true (zero x)

(* Sequences of [refactor_interval] (128) column replacements, and on the
   smallest bases of 200, past the room an update layer starts with: after
   each, FTRAN and BTRAN of sparse right-hand sides through the updated
   factorization match a fresh factorization of the current basis, and
   the reach and sweep paths agree bit for bit.  One near-singular
   replacement per sequence must be refused by the stability test, which
   leaves the factorization solving the basis it had. *)
let dense ~dim col =
  let a = Array.make dim 0. in
  Lp.Sparse_vec.iter (fun i x -> a.(i) <- x) col;
  a

let test_update_matches_fresh () =
  let rand = Random.State.make [| 20060403 |] in
  let module U = Lp.Lu.Update in
  let reach_used = ref 0 and cases = ref 0 and refused = ref 0 in
  let close ~what fresh got =
    let scale =
      Array.fold_left (fun acc x -> Float.max acc (Float.abs x)) 1. fresh
    in
    Array.iteri
      (fun i x ->
        if Float.abs (x -. got.(i)) > 1e-9 *. scale then
          Alcotest.failf "%s: entry %d is %.17g, fresh factor %.17g" what i
            got.(i) x)
      fresh
  in
  (* Every solve direction on [b], through [u] against [fresh]. *)
  let check u fresh ~dim b =
    List.iter
      (fun dir ->
        incr cases;
        let run ~full =
          let out = Lp.Lu.vec dim in
          let steps =
            (match dir with `F -> U.ftran | `T -> U.btran) u (load ~full b) out
          in
          (steps, out.Lp.Lu.values)
        in
        let steps, sparse = run ~full:false in
        let sweep_steps, dense = run ~full:true in
        Alcotest.(check int) "full pattern sweeps" (2 * dim) sweep_steps;
        if steps < 2 * dim then incr reach_used;
        Alcotest.(check (array int64))
          "updated reach = sweep, bit for bit" (bits dense) (bits sparse);
        let want =
          match dir with
          | `F -> Lp.Lu.solve fresh b
          | `T -> Lp.Lu.solve_transpose fresh b
        in
        close ~what:(match dir with `F -> "ftran" | `T -> "btran") want sparse)
      [ `F; `T ]
  in
  List.iter
    (fun (dim, slack, sequences, length) ->
      for _ = 1 to sequences do
        let cols = random_basis rand ~dim ~slack in
        let u = U.create (Lp.Lu.factor ~dim cols) in
        let near_singular_at = 1 + Random.State.int rand length in
        for step = 1 to length do
          let slot = Random.State.int rand dim in
          if step = near_singular_at then begin
            (* Another slot's column, perturbed by 1e-13: the new diagonal
               is tiny. *)
            let other = (slot + 1) mod dim in
            let a = dense ~dim cols.(other) in
            let i = Random.State.int rand dim in
            a.(i) <- a.(i) +. 1e-13;
            let w = Lp.Lu.vec dim in
            ignore (U.ftran u (load ~full:false a) w);
            if U.replace u ~slot ~alpha:w.Lp.Lu.values.(slot) then
              Alcotest.failf "near-singular replacement accepted (dim %d)" dim;
            incr refused
          end
          else begin
            (* A column like [random_basis]'s, its dominant entry in the
               row of the replaced column's largest one, kept only when
               its FTRAN entry at the slot is not small. *)
            let d =
              let best = ref (-1, 0.) in
              Lp.Sparse_vec.iter
                (fun i x -> if Float.abs x > snd !best then best := (i, Float.abs x))
                cols.(slot);
              fst !best
            in
            let rec pick () =
              let col = random_column rand ~dim d in
              let w = Lp.Lu.vec dim in
              ignore
                (U.ftran u (load ~full:false (dense ~dim col)) w);
              let alpha = w.Lp.Lu.values.(slot) in
              let biggest =
                Array.fold_left (fun m x -> Float.max m (Float.abs x)) 0.
                  w.Lp.Lu.values
              in
              if Float.abs alpha < 0.1 *. biggest then pick () else (col, alpha)
            in
            let col, alpha = pick () in
            if not (U.replace u ~slot ~alpha) then
              Alcotest.failf "step %d: well-conditioned replacement refused" step;
            cols.(slot) <- col
          end;
          Alcotest.(check int) "updates counted"
            (step - if step >= near_singular_at then 1 else 0)
            (U.count u);
          let fresh = Lp.Lu.factor ~dim cols in
          for count = 1 to 2 do
            check u fresh ~dim (sparse_rhs rand ~dim ~count)
          done
        done
      done)
    [ (60, 0.5, 3, 200); (200, 0.8, 2, 128); (400, 0.95, 2, 128) ];
  Alcotest.(check int) "one refusal per sequence" 7 !refused;
  if 2 * !reach_used < !cases then
    Alcotest.failf "the reach path ran on only %d of %d updated solves"
      !reach_used !cases

(* A random bounded LP in standard form: [n] structurals in [0, u] and one
   slack per row, rows [A x + s = rhs] with a positive [rhs]. *)
let random_lp rand ~m ~n =
  let cols =
    Array.init (n + m) (fun j ->
        if j >= n then Lp.Sparse_vec.of_assoc [ (j - n, 1.) ]
        else
          Lp.Sparse_vec.of_assoc
            (List.init
               (1 + Random.State.int rand 3)
               (fun _ ->
                 (Random.State.int rand m, 0.2 +. Random.State.float rand 2.))))
  in
  {
    Lp.Problem.nrows = m;
    ncols = n + m;
    cols;
    obj =
      Array.init (n + m) (fun j ->
          if j < n then -.(0.1 +. Random.State.float rand 3.) else 0.);
    lower = Array.make (n + m) 0.;
    upper =
      Array.init (n + m) (fun j ->
          if j < n then 0.5 +. Random.State.float rand 3. else infinity);
    rhs = Array.init m (fun _ -> 1. +. Random.State.float rand 10.);
    basis_hint = None;
    start = None;
    shared = Lp.Problem.fresh_shared ();
  }

let test_warm_equals_cold () =
  let rand = Random.State.make [| 20060403 |] in
  let refactor_interval = 4 in
  let certified (p : Lp.Problem.t) (r : Lp.Revised.result) =
    r.Lp.Revised.status = Lp.Revised.Optimal
    && (Lp.Certify.certify_optimal p ~x:r.Lp.Revised.x ~duals:r.Lp.Revised.duals)
         .Lp.Certify.certified
  in
  for trial = 1 to 30 do
    let p = random_lp rand ~m:(20 + (trial mod 5 * 10)) ~n:60 in
    let first = Lp.Revised.solve ~refactor_interval p in
    if not (certified p first) then Alcotest.failf "trial %d: cold not certified" trial;
    let q =
      {
        p with
        Lp.Problem.rhs =
          Array.map (fun r -> r *. (0.7 +. Random.State.float rand 0.6)) p.Lp.Problem.rhs;
        upper =
          Array.map
            (fun u ->
              if u < infinity && Random.State.float rand 1. < 0.3 then
                u *. Random.State.float rand 1.5
              else u)
            p.Lp.Problem.upper;
      }
    in
    let cold = Lp.Revised.solve ~refactor_interval q in
    let warm = Lp.Revised.solve ~refactor_interval ~basis:first.Lp.Revised.basis q in
    if not (certified q cold && certified q warm) then
      Alcotest.failf "trial %d: perturbed solve not certified" trial;
    let scale = 1. +. Float.abs cold.Lp.Revised.objective in
    if Float.abs (cold.Lp.Revised.objective -. warm.Lp.Revised.objective) > 1e-7 *. scale
    then
      Alcotest.failf "trial %d: warm %.12g <> cold %.12g" trial
        warm.Lp.Revised.objective cold.Lp.Revised.objective
  done

let () =
  Alcotest.run "lp-kernel"
    [
      ( "lu",
        [
          Alcotest.test_case "reach path = full sweep" `Quick
            test_reach_matches_sweep;
          Alcotest.test_case "work vectors cleared" `Quick test_buffers_cleared;
          Alcotest.test_case "updated factor = fresh factor" `Quick
            test_update_matches_fresh;
        ] );
      ( "revised",
        [ Alcotest.test_case "warm = cold across refactorizations" `Quick
            test_warm_equals_cold ] );
    ]
