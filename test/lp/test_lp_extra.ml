(* Deeper LP-solver validation: problem validation, duality, degeneracy,
   larger randomized instances, and LU edge cases. *)

let check_float = Alcotest.(check (float 1e-6))

(* ---------- Problem validation ---------- *)

let base_problem () =
  {
    Lp.Problem.nrows = 1;
    ncols = 2;
    cols =
      [| Lp.Sparse_vec.of_assoc [ (0, 1.) ]; Lp.Sparse_vec.of_assoc [ (0, 1.) ] |];
    obj = [| 1.; 0. |];
    lower = [| 0.; 0. |];
    upper = [| 1.; infinity |];
    rhs = [| 1. |];
    basis_hint = None;
    start = None;
    shared = Lp.Problem.fresh_shared ();
  }

let test_validate_ok () = Lp.Problem.validate (base_problem ())

let test_validate_bad_lengths () =
  let p = { (base_problem ()) with obj = [| 1. |] } in
  (try
     Lp.Problem.validate p;
     Alcotest.fail "expected failure"
   with Invalid_argument _ -> ())

let test_validate_row_out_of_range () =
  let p =
    {
      (base_problem ()) with
      cols =
        [|
          Lp.Sparse_vec.of_assoc [ (5, 1.) ]; Lp.Sparse_vec.of_assoc [ (0, 1.) ];
        |];
    }
  in
  (try
     Lp.Problem.validate p;
     Alcotest.fail "expected failure"
   with Invalid_argument _ -> ())

let test_validate_bound_order () =
  let p = { (base_problem ()) with lower = [| 2.; 0. |] } in
  (try
     Lp.Problem.validate p;
     Alcotest.fail "expected failure"
   with Invalid_argument _ -> ())

let test_validate_bad_hint () =
  (* Column 0 is a unit vector but the hint points at a non-unit column. *)
  let p =
    {
      (base_problem ()) with
      cols =
        [|
          Lp.Sparse_vec.of_assoc [ (0, 2.) ]; Lp.Sparse_vec.of_assoc [ (0, 1.) ];
        |];
      basis_hint = Some [| 0 |];
    }
  in
  (try
     Lp.Problem.validate p;
     Alcotest.fail "expected failure"
   with Invalid_argument _ -> ())

(* Each invalid problem with the exact message [validate] raises: the
   messages are part of the interface, formatted only on failure. *)
let start vars ncols = { Lp.Problem.vars; at_upper = Array.make ncols false }

let test_validate_messages () =
  let b = base_problem in
  let unit_cols =
    [| Lp.Sparse_vec.of_assoc [ (0, 1.) ]; Lp.Sparse_vec.of_assoc [ (0, 2.) ] |]
  in
  let cases =
    [
      ( { (b ()) with lower = [| Float.nan; 0. |] },
        "Problem: NaN bound on column 0" );
      ( { (b ()) with upper = [| 1.; Float.nan |] },
        "Problem: NaN bound on column 1" );
      ( { (b ()) with lower = [| 2.; 0. |] },
        "Problem: column 0 has lower bound 2 > upper bound 1" );
      ( { (b ()) with lower = [| 0.; infinity |] },
        "Problem: column 1 has lower bound +inf" );
      ( { (b ()) with lower = [| neg_infinity; 0. |]; upper = [| neg_infinity; 1. |] },
        "Problem: column 0 has upper bound -inf" );
      ( { (b ()) with obj = [| 1.; infinity |] },
        "Problem: column 1 has non-finite objective coefficient inf" );
      ( { (b ()) with obj = [| Float.nan; 0. |] },
        "Problem: column 0 has non-finite objective coefficient nan" );
      ( { (b ()) with rhs = [| neg_infinity |] },
        "Problem: row 0 has non-finite rhs -inf" );
      ( { (b ()) with rhs = [| Float.nan |] },
        "Problem: row 0 has non-finite rhs nan" );
      ( { (b ()) with cols = [| Lp.Sparse_vec.of_assoc [ (0, 1.) ]; Lp.Sparse_vec.of_assoc [ (3, 1.) ] |] },
        "Problem: column 1 has row index 3 >= nrows 1" );
      ( { (b ()) with basis_hint = Some [| 0; 1 |] }, "Problem: basis_hint length" );
      ( { (b ()) with basis_hint = Some [| 2 |] },
        "Problem: basis_hint column out of range" );
      ( { (b ()) with cols = unit_cols; basis_hint = Some [| 1 |] },
        "Problem: basis_hint column not e_i" );
      ( { (b ()) with
          cols = [| Lp.Sparse_vec.of_assoc [ (0, 1.); (1, 1.) ]; Lp.Sparse_vec.of_assoc [ (0, 1.) ] |];
          nrows = 2; rhs = [| 1.; 1. |]; basis_hint = Some [| 0; -1 |] },
        "Problem: basis_hint column not a unit vector" );
      ( { (b ()) with start = Some (start [| 0; 1 |] 2) },
        "Problem: start has 2 basic entries for 1 rows" );
      ( { (b ()) with start = Some (start [| 0 |] 1) },
        "Problem: start has 1 bound flags for 2 columns" );
      ( { (b ()) with start = Some (start [| 2 |] 2) },
        "Problem: start row 0 has column 2 out of range" );
      ( { (b ()) with start = Some (start [| -2 |] 2) },
        "Problem: start row 0 has column -2 out of range" );
      ( { (b ()) with
          cols = [| Lp.Sparse_vec.of_assoc [ (0, 1.); (1, 1.) ]; Lp.Sparse_vec.of_assoc [ (0, 1.) ] |];
          nrows = 2; rhs = [| 1.; 1. |]; start = Some (start [| 0; 0 |] 2) },
        "Problem: start column 0 is basic in rows 0 and 1" );
    ]
  in
  List.iter
    (fun (p, expected) ->
      match Lp.Problem.validate p with
      | () -> Alcotest.failf "accepted: %s" expected
      | exception Invalid_argument msg ->
          Alcotest.(check string) "message" expected msg)
    cases

(* A start is checked on every copy that brings its own, also once the
   shared matrix has passed, and the solver refuses a bad one instead of
   solving from the all-slack basis. *)
let test_validate_start_copies () =
  let p = { (base_problem ()) with start = Some (start [| 1 |] 2) } in
  Lp.Problem.validate p;
  Lp.Problem.validate { p with start = Some (start [| -1 |] 2) };
  let bad = { p with start = Some (start [| 5 |] 2) } in
  let refused what f =
    match f () with
    | () -> Alcotest.failf "%s: accepted" what
    | exception Invalid_argument msg ->
        Alcotest.(check string) what "Problem: start row 0 has column 5 out of range" msg
  in
  refused "validate" (fun () -> Lp.Problem.validate bad);
  refused "solve" (fun () -> ignore (Lp.Revised.solve bad));
  let r = Lp.Revised.solve p in
  Alcotest.(check bool) "good start solves" true (r.Lp.Revised.status = Lp.Revised.Optimal)

let test_problem_helpers () =
  let p = base_problem () in
  let x = [| 0.25; 0.5 |] in
  check_float "activity" 0.75 (Lp.Problem.activity p x).(0);
  check_float "objective" 0.25 (Lp.Problem.objective_value p x);
  check_float "violation" 0.25 (Lp.Problem.max_constraint_violation p x);
  check_float "feasible point" 0.
    (Lp.Problem.max_constraint_violation p [| 0.5; 0.5 |])

(* ---------- Revised solver internals via Model ---------- *)

let test_revised_degenerate_terminates () =
  (* Beale's classic cycling example (degenerate under naive pivoting). *)
  let m = Lp.Model.create () in
  let x1 = Lp.Model.add_var m ~obj:(-0.75) "x1" in
  let x2 = Lp.Model.add_var m ~obj:150. "x2" in
  let x3 = Lp.Model.add_var m ~obj:(-0.02) "x3" in
  let x4 = Lp.Model.add_var m ~obj:6. "x4" in
  Lp.Model.add_le m [ (0.25, x1); (-60., x2); (-0.04, x3); (9., x4) ] 0.;
  Lp.Model.add_le m [ (0.5, x1); (-90., x2); (-0.02, x3); (3., x4) ] 0.;
  Lp.Model.add_le m [ (1., x3) ] 1.;
  let sol = Lp.Model.solve m in
  Alcotest.(check bool) "optimal" true (sol.Lp.Model.status = Lp.Model.Optimal);
  check_float "objective" (-0.05) sol.Lp.Model.objective

let test_revised_duals_strong_duality () =
  (* On a pure <=-form LP with x >= 0, strong duality reads
     c'x = y'b at the optimum (y are the row duals). *)
  let m = Lp.Model.create ~direction:Lp.Model.Maximize () in
  let x = Lp.Model.add_var m ~obj:3. "x" in
  let y = Lp.Model.add_var m ~obj:5. "y" in
  Lp.Model.add_le m [ (1., x) ] 4.;
  Lp.Model.add_le m [ (2., y) ] 12.;
  Lp.Model.add_le m [ (3., x); (2., y) ] 18.;
  let sol = Lp.Model.solve m in
  match sol.Lp.Model.stats with
  | None -> Alcotest.fail "expected revised stats"
  | Some _ ->
      Alcotest.(check bool) "optimal" true (sol.Lp.Model.status = Lp.Model.Optimal);
      check_float "primal objective" 36. sol.Lp.Model.objective

let test_iteration_limit_status () =
  let m = Lp.Model.create ~direction:Lp.Model.Maximize () in
  let vars =
    List.init 12 (fun i -> Lp.Model.add_var m ~obj:(1. +. float_of_int i) ~upper:10. (Printf.sprintf "x%d" i))
  in
  List.iteri
    (fun i v ->
      List.iteri
        (fun j w -> if j > i then Lp.Model.add_le m [ (1., v); (1., w) ] 12.)
        vars)
    vars;
  let sol = Lp.Model.solve ~max_iterations:1 m in
  Alcotest.(check bool) "iteration limit reported" true
    (sol.Lp.Model.status = Lp.Model.Iteration_limit)

let test_negative_lower_bounds () =
  (* min x + y with x in [-5, -1], y >= x + 3 -> x = -5, y = -2, obj -7. *)
  let m = Lp.Model.create () in
  let x = Lp.Model.add_var m ~lower:(-5.) ~upper:(-1.) ~obj:1. "x" in
  let y = Lp.Model.add_var m ~lower:neg_infinity ~obj:1. "y" in
  Lp.Model.add_ge m [ (1., y); (-1., x) ] 3.;
  let sol = Lp.Model.solve m in
  check_float "objective" (-7.) sol.Lp.Model.objective;
  check_float "x at lower" (-5.) (Lp.Model.value sol x);
  check_float "y follows" (-2.) (Lp.Model.value sol y)

let test_model_var_names () =
  let m = Lp.Model.create () in
  let a = Lp.Model.add_var m "alpha" in
  let b = Lp.Model.add_var m "beta" in
  Alcotest.(check string) "first name" "alpha" (Lp.Model.var_name m a);
  Alcotest.(check string) "second name" "beta" (Lp.Model.var_name m b);
  Alcotest.(check int) "indices" 1 (Lp.Model.var_index b)

let test_model_set_obj () =
  let m = Lp.Model.create ~direction:Lp.Model.Maximize () in
  let x = Lp.Model.add_var m ~upper:2. "x" in
  Lp.Model.set_obj m x 5.;
  let sol = Lp.Model.solve m in
  check_float "updated objective used" 10. sol.Lp.Model.objective

let test_model_rejects_foreign_var () =
  let m1 = Lp.Model.create () in
  let m2 = Lp.Model.create () in
  let x = Lp.Model.add_var m1 "x" in
  ignore (Lp.Model.add_var m2 "y");
  ignore x;
  (* Constraint mentioning a var id beyond m2's count must be rejected. *)
  let z = Lp.Model.add_var m1 "z" in
  try
    Lp.Model.add_le m2 [ (1., z) ] 1.;
    Alcotest.fail "expected rejection"
  with Invalid_argument _ -> ()

(* ---------- Larger randomized agreement ---------- *)

let bigger_random_agreement =
  QCheck.Test.make ~name:"revised = dense on larger random LPs" ~count:60
    (QCheck.make ~print:string_of_int QCheck.Gen.(0 -- 100_000))
    (fun seed ->
      let rand = Random.State.make [| seed + 31337 |] in
      let nvars = 10 + Random.State.int rand 15 in
      let nrows = 10 + Random.State.int rand 15 in
      let m = Lp.Model.create ~direction:Lp.Model.Maximize () in
      let vars =
        Array.init nvars (fun i ->
            Lp.Model.add_var m ~upper:8.
              ~obj:(Random.State.float rand 5. -. 1.)
              (Printf.sprintf "x%d" i))
      in
      for _ = 1 to nrows do
        let terms = ref [] in
        Array.iter
          (fun v ->
            if Random.State.float rand 1. < 0.3 then
              terms := (Random.State.float rand 4. -. 1., v) :: !terms)
          vars;
        Lp.Model.add_le m !terms (Random.State.float rand 20.)
      done;
      let a = Lp.Model.solve m in
      let b = fst (Dense_simplex.solve_model m) in
      match (a.Lp.Model.status, b.Lp.Model.status) with
      | Lp.Model.Optimal, Lp.Model.Optimal ->
          Float.abs (a.Lp.Model.objective -. b.Lp.Model.objective)
          <= 1e-5 *. (1. +. Float.abs b.Lp.Model.objective)
      | sa, sb -> Lp.Model.status_equal sa sb)

let equality_rows_agreement =
  QCheck.Test.make ~name:"revised = dense with equality rows" ~count:100
    (QCheck.make ~print:string_of_int QCheck.Gen.(0 -- 100_000))
    (fun seed ->
      let rand = Random.State.make [| seed + 99 |] in
      let nvars = 3 + Random.State.int rand 6 in
      let m = Lp.Model.create () in
      let vars =
        Array.init nvars (fun i ->
            Lp.Model.add_var m ~upper:6.
              ~obj:(Random.State.float rand 4. -. 2.)
              (Printf.sprintf "x%d" i))
      in
      (* One equality over all vars keeps feasibility likely. *)
      Lp.Model.add_eq m
        (Array.to_list (Array.map (fun v -> (1., v)) vars))
        (float_of_int nvars);
      for _ = 1 to 1 + Random.State.int rand 4 do
        let terms = ref [] in
        Array.iter
          (fun v ->
            if Random.State.float rand 1. < 0.5 then
              terms := (Random.State.float rand 3., v) :: !terms)
          vars;
        Lp.Model.add_le m !terms (2. +. Random.State.float rand 15.)
      done;
      let a = Lp.Model.solve m in
      let b = fst (Dense_simplex.solve_model m) in
      match (a.Lp.Model.status, b.Lp.Model.status) with
      | Lp.Model.Optimal, Lp.Model.Optimal ->
          Float.abs (a.Lp.Model.objective -. b.Lp.Model.objective)
          <= 1e-5 *. (1. +. Float.abs b.Lp.Model.objective)
      | sa, sb -> Lp.Model.status_equal sa sb)

(* ---------- LU extras ---------- *)

let test_lu_dense_block () =
  (* A fully dense 12x12 system exercises Markowitz fallback (no
     singletons after the first pivots). *)
  let dim = 12 in
  let rand = Random.State.make [| 5 |] in
  let a = Array.init dim (fun _ -> Array.init dim (fun _ -> Random.State.float rand 2. -. 1.)) in
  for i = 0 to dim - 1 do
    a.(i).(i) <- a.(i).(i) +. 10.  (* diagonal dominance *)
  done;
  let cols =
    Array.init dim (fun c ->
        Lp.Sparse_vec.of_assoc (List.init dim (fun r -> (r, a.(r).(c)))))
  in
  let lu = Lp.Lu.factor ~dim cols in
  let b = Array.init dim (fun i -> float_of_int (i + 1)) in
  let x = Lp.Lu.solve lu b in
  (* Verify residual directly. *)
  let max_resid = ref 0. in
  for r = 0 to dim - 1 do
    let acc = ref 0. in
    for c = 0 to dim - 1 do
      acc := !acc +. (a.(r).(c) *. x.(c))
    done;
    max_resid := Float.max !max_resid (Float.abs (!acc -. b.(r)))
  done;
  Alcotest.(check (float 1e-8)) "dense block residual" 0. !max_resid

let test_lu_1x1 () =
  let lu = Lp.Lu.factor ~dim:1 [| Lp.Sparse_vec.of_assoc [ (0, -4.) ] |] in
  check_float "trivial solve" (-0.5) (Lp.Lu.solve lu [| 2. |]).(0)

let test_lu_zero_matrix_singular () =
  (try
     ignore (Lp.Lu.factor ~dim:2 [| Lp.Sparse_vec.empty; Lp.Sparse_vec.empty |]);
     Alcotest.fail "expected Singular"
   with Lp.Lu.Singular _ -> ())

let lu_transpose_consistency =
  (* For random B, b, c:  c . (B^-1 b)  =  (B^-T c) . b. *)
  QCheck.Test.make ~name:"LU solve/transpose adjoint identity" ~count:200
    (QCheck.make ~print:string_of_int QCheck.Gen.(0 -- 100_000))
    (fun seed ->
      let rand = Random.State.make [| seed + 4242 |] in
      let dim = 1 + Random.State.int rand 30 in
      let cols =
        Array.init dim (fun c ->
            let entries = ref [ (c, 5. +. Random.State.float rand 3.) ] in
            for _ = 1 to 2 do
              let r = Random.State.int rand dim in
              if r <> c then entries := (r, Random.State.float rand 2. -. 1.) :: !entries
            done;
            Lp.Sparse_vec.of_assoc !entries)
      in
      let lu = Lp.Lu.factor ~dim cols in
      let b = Array.init dim (fun _ -> Random.State.float rand 4. -. 2.) in
      let c = Array.init dim (fun _ -> Random.State.float rand 4. -. 2.) in
      let x = Lp.Lu.solve lu b in
      let y = Lp.Lu.solve_transpose lu c in
      let dot u v =
        let acc = ref 0. in
        Array.iteri (fun i ui -> acc := !acc +. (ui *. v.(i))) u;
        !acc
      in
      Float.abs (dot c x -. dot y b) <= 1e-6 *. (1. +. Float.abs (dot c x)))

(* A NaN coefficient must not vanish in the lowering's zero filter (the
   model would solve as if the term were absent and certify that);
   every non-finite coefficient is refused, naming its row and variable. *)
let test_model_refuses_non_finite () =
  List.iter
    (fun (c, shown) ->
      let m = Lp.Model.create ~direction:Lp.Model.Maximize () in
      let x = Lp.Model.add_var m ~obj:1. "x" in
      let y = Lp.Model.add_var m ~obj:1. ~upper:1. "y" in
      Lp.Model.add_le m [ (1., x); (1., y) ] 10.;
      Lp.Model.add_le m [ (1., x); (c, y) ] 4.;
      let expected =
        Printf.sprintf
          "Model.to_problem: row 1 has non-finite coefficient %s for \
           variable 1 (y)"
          shown
      in
      Alcotest.check_raises ("solve with " ^ shown) (Invalid_argument expected)
        (fun () -> ignore (Lp.Model.solve_certified m));
      Alcotest.check_raises ("dense with " ^ shown) (Invalid_argument expected)
        (fun () -> ignore (Dense_simplex.solve_model m)))
    [ (Float.nan, "nan"); (infinity, "inf"); (neg_infinity, "-inf") ]

(* The two-pass lowering builds each column exactly as [Sparse_vec.of_assoc]
   would from the column's terms in insertion order: duplicates (summed
   in that function's order), zeros, entries at the drop tolerance and
   cancelling pairs included. *)
let lowering_matches_of_assoc =
  QCheck.Test.make ~name:"lowered columns equal the of_assoc reference"
    ~count:300
    (QCheck.make ~print:string_of_int QCheck.Gen.(0 -- 100_000))
    (fun seed ->
      let rand = Random.State.make [| seed + 77 |] in
      let nv = 1 + Random.State.int rand 12 in
      let nr = 1 + Random.State.int rand 10 in
      let m = Lp.Model.create () in
      let vars =
        Array.init nv (fun j -> Lp.Model.add_var m (Printf.sprintf "v%d" j))
      in
      let coef () =
        match Random.State.int rand 8 with
        | 0 -> 0.
        | 1 -> 1e-13
        | 2 -> 0.1
        | 3 -> -0.1
        | _ -> Random.State.float rand 4. -. 2.
      in
      let rows =
        Array.init nr (fun _ ->
            List.init (Random.State.int rand 8) (fun _ ->
                (coef (), Random.State.int rand nv)))
      in
      Array.iter
        (fun terms ->
          let rhs = Random.State.float rand 10. in
          Lp.Model.add_le m (List.map (fun (c, v) -> (c, vars.(v))) terms) rhs)
        rows;
      let p = Lp.Model.to_problem m in
      let entries = Array.make nv [] in
      Array.iteri
        (fun i terms ->
          List.iter (fun (c, v) -> entries.(v) <- (i, c) :: entries.(v)) terms)
        rows;
      let same (a : Lp.Sparse_vec.t) (b : Lp.Sparse_vec.t) =
        a.idx = b.idx
        && Array.length a.value = Array.length b.value
        && Array.for_all2
             (fun x y ->
               Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
             a.value b.value
      in
      Array.for_all Fun.id
        (Array.init nv (fun v ->
             same p.Lp.Problem.cols.(v) (Lp.Sparse_vec.of_assoc entries.(v))))
      && Array.for_all Fun.id
           (Array.init nr (fun i ->
                same p.Lp.Problem.cols.(nv + i)
                  (Lp.Sparse_vec.of_assoc [ (i, 1.) ]))))

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ bigger_random_agreement; equality_rows_agreement; lu_transpose_consistency;
      lowering_matches_of_assoc ]

let () =
  Alcotest.run ~and_exit:false "lp_extra"
    [
      ( "problem",
        [
          Alcotest.test_case "validate accepts sane problems" `Quick test_validate_ok;
          Alcotest.test_case "bad lengths rejected" `Quick test_validate_bad_lengths;
          Alcotest.test_case "row index out of range" `Quick test_validate_row_out_of_range;
          Alcotest.test_case "bound order checked" `Quick test_validate_bound_order;
          Alcotest.test_case "bad basis hint rejected" `Quick test_validate_bad_hint;
          Alcotest.test_case "bad start on a copy rejected" `Quick
            test_validate_start_copies;
          Alcotest.test_case "exact validation messages" `Quick test_validate_messages;
          Alcotest.test_case "activity/objective/violation" `Quick test_problem_helpers;
        ] );
      ( "revised",
        [
          Alcotest.test_case "Beale degeneracy terminates" `Quick
            test_revised_degenerate_terminates;
          Alcotest.test_case "strong duality on textbook LP" `Quick
            test_revised_duals_strong_duality;
          Alcotest.test_case "iteration limit status" `Quick test_iteration_limit_status;
          Alcotest.test_case "negative lower bounds" `Quick test_negative_lower_bounds;
        ] );
      ( "model",
        [
          Alcotest.test_case "variable names" `Quick test_model_var_names;
          Alcotest.test_case "set_obj" `Quick test_model_set_obj;
          Alcotest.test_case "foreign variable rejected" `Quick
            test_model_rejects_foreign_var;
          Alcotest.test_case "non-finite coefficient refused" `Quick
            test_model_refuses_non_finite;
        ] );
      ( "lu_extra",
        [
          Alcotest.test_case "dense block" `Quick test_lu_dense_block;
          Alcotest.test_case "1x1" `Quick test_lu_1x1;
          Alcotest.test_case "zero matrix singular" `Quick test_lu_zero_matrix_singular;
        ] );
      ("properties", qcheck_cases);
    ]

(* Appended: row duals / shadow prices. *)
let test_duals_textbook () =
  (* max 3x + 5y st x <= 4, 2y <= 12, 3x + 2y <= 18: the classic duals are
     (0, 3/2, 1). *)
  let m = Lp.Model.create ~direction:Lp.Model.Maximize () in
  let x = Lp.Model.add_var m ~obj:3. "x" in
  let y = Lp.Model.add_var m ~obj:5. "y" in
  Lp.Model.add_le m [ (1., x) ] 4.;
  Lp.Model.add_le m [ (0., x); (2., y) ] 12.;
  Lp.Model.add_le m [ (3., x); (2., y) ] 18.;
  let sol = Lp.Model.solve m in
  match sol.Lp.Model.row_duals with
  | None -> Alcotest.fail "expected duals"
  | Some d ->
      Alcotest.(check (float 1e-6)) "slack row has zero price" 0. d.(0);
      Alcotest.(check (float 1e-6)) "second row" 1.5 d.(1);
      Alcotest.(check (float 1e-6)) "third row" 1. d.(2)

let duals_bound_rhs_perturbation =
  (* For a maximization LP the value function is concave in the rhs, so
     the realized gain from relaxing one row never exceeds its shadow
     price times the relaxation. *)
  QCheck.Test.make ~name:"shadow prices bound rhs perturbations" ~count:150
    (QCheck.make ~print:string_of_int QCheck.Gen.(0 -- 100_000))
    (fun seed ->
      let rand = Random.State.make [| seed + 777 |] in
      let nvars = 2 + Random.State.int rand 6 in
      let build extra_rhs =
        let m = Lp.Model.create ~direction:Lp.Model.Maximize () in
        let rand = Random.State.make [| seed + 777 |] in
        let vars =
          Array.init nvars (fun i ->
              Lp.Model.add_var m ~upper:6.
                ~obj:(Random.State.float rand 4.)
                (Printf.sprintf "x%d" i))
        in
        for r = 0 to 3 do
          let terms = ref [] in
          Array.iter
            (fun v ->
              if Random.State.float rand 1. < 0.5 then
                terms := (Random.State.float rand 3., v) :: !terms)
            vars;
          let rhs = 2. +. Random.State.float rand 10. in
          Lp.Model.add_le m !terms (if r = 0 then rhs +. extra_rhs else rhs)
        done;
        Lp.Model.solve m
      in
      let base = build 0. in
      let bumped = build 0.5 in
      match (base.Lp.Model.status, bumped.Lp.Model.status, base.Lp.Model.row_duals) with
      | Lp.Model.Optimal, Lp.Model.Optimal, Some duals ->
          bumped.Lp.Model.objective -. base.Lp.Model.objective
          <= (duals.(0) *. 0.5) +. 1e-6
          && duals.(0) >= -1e-9
      | _ -> false)

let () =
  Alcotest.run ~and_exit:true "lp_duals"
    [
      ( "duals",
        Alcotest.test_case "textbook duals" `Quick test_duals_textbook
        :: List.map QCheck_alcotest.to_alcotest [ duals_bound_rhs_perturbation ]
      );
    ]
