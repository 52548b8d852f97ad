(* Adversarial LP corpus: degenerate, near-singular and badly scaled
   problems, solved and then *independently certified* — the solver is
   treated as an untrusted component and every claim is re-checked against
   nothing but the problem data.  Also covers: tampered solutions being
   rejected, Farkas / unbounded-ray certificates, the strengthened
   [Problem.validate], and iteration-starved solves being explicitly
   rejected rather than silently shipped. *)

let check_float = Alcotest.(check (float 1e-6))

let certified (r : Lp.Certify.report) = r.Lp.Certify.certified

let reasons_of (r : Lp.Certify.report) =
  String.concat "; " r.Lp.Certify.reasons

let assert_certified what (r : Lp.Certify.report) =
  Alcotest.(check bool)
    (Printf.sprintf "%s certified (%s)" what (reasons_of r))
    true (certified r)

(* ---- the corpus ---- *)

(* Heavy primal degeneracy: every objective coefficient ties, every
   capacity row is tight at the same point, and the budget row is an exact
   multiple of the capacities. *)
let degenerate_model () =
  let m = Lp.Model.create ~direction:Lp.Model.Maximize () in
  let n = 10 in
  let xs =
    Array.init n (fun i ->
        Lp.Model.add_var m ~upper:1. ~obj:1. (Printf.sprintf "x%d" i))
  in
  Array.iter (fun x -> Lp.Model.add_le m [ (1., x) ] 1.) xs;
  Lp.Model.add_le m (Array.to_list (Array.map (fun x -> (1., x)) xs)) 5.;
  Lp.Model.add_le m
    (Array.to_list (Array.map (fun x -> (2., x)) xs))
    10.;
  (m, 5.)

(* Two rows that differ by 1e-9: the basis matrix is nearly singular
   whenever both slacks leave. *)
let near_singular_model () =
  let m = Lp.Model.create ~direction:Lp.Model.Maximize () in
  let x = Lp.Model.add_var m ~obj:1. "x" in
  let y = Lp.Model.add_var m ~obj:1. "y" in
  Lp.Model.add_le m [ (1., x); (1., y) ] 1.;
  Lp.Model.add_le m [ (1., x); (1. +. 1e-9, y) ] 1.;
  Lp.Model.add_le m [ (1., x); (-1., y) ] 0.5;
  (m, 1.)

(* Coefficients spanning 1e-8 .. 1e8.  The certifier's backward-error
   scaling is what keeps this honest: absolute residuals of order 1e-3 are
   perfectly fine on rows of magnitude 1e8. *)
let badly_scaled_model () =
  let m = Lp.Model.create ~direction:Lp.Model.Maximize () in
  let a = Lp.Model.add_var m ~obj:1e-8 "a" in
  let b = Lp.Model.add_var m ~obj:1e8 "b" in
  let c = Lp.Model.add_var m ~obj:1. "c" in
  Lp.Model.add_le m [ (1e-8, a) ] 1.;
  Lp.Model.add_le m [ (1e8, b) ] 1.;
  Lp.Model.add_le m [ (1e8, a); (1e-8, b); (1., c) ] 1e8;
  (* 1e8*a <= 1e8 makes a <= 1 binding through a huge row; the optimum
     ships a = 1 despite its tiny objective weight. *)
  (1e-8 *. 1e8) +. (1e8 /. 1e8) |> ignore;
  (m, (1e-8 *. 1e8) +. 1. +. 0.)

let corpus =
  [
    ("degenerate", degenerate_model);
    ("near-singular", near_singular_model);
    ("badly-scaled", badly_scaled_model);
  ]

let test_corpus_certified () =
  List.iter
    (fun (name, build) ->
      let m, _ = build () in
      let sol, report = Lp.Model.solve_certified m in
      Alcotest.(check bool)
        (name ^ " optimal") true
        (sol.Lp.Model.status = Lp.Model.Optimal);
      assert_certified name report)
    corpus

let test_corpus_objectives () =
  (* Expected optima, computed by hand above. *)
  let expected = [ ("degenerate", 5.); ("near-singular", 1.) ] in
  List.iter
    (fun (name, build) ->
      let m, _ = build () in
      let sol, _ = Lp.Model.solve_certified m in
      match List.assoc_opt name expected with
      | Some v -> check_float (name ^ " objective") v sol.Lp.Model.objective
      | None -> ())
    corpus

let test_corpus_agrees_with_dense () =
  List.iter
    (fun (name, build) ->
      let m, _ = build () in
      let rsol, rrep = Lp.Model.solve_certified m in
      let dsol, drep = Dense_simplex.solve_model m in
      assert_certified (name ^ " revised") rrep;
      assert_certified (name ^ " dense") drep;
      let scale = 1. +. Float.abs rsol.Lp.Model.objective in
      Alcotest.(check bool)
        (Printf.sprintf "%s objectives agree (%.9g vs %.9g)" name
           rsol.Lp.Model.objective dsol.Lp.Model.objective)
        true
        (Float.abs (rsol.Lp.Model.objective -. dsol.Lp.Model.objective)
         <= 1e-5 *. scale))
    corpus

(* ---- tampering: the certifier must catch a lying solver ---- *)

let test_tampered_solution_rejected () =
  let m, _ = degenerate_model () in
  let prob = Lp.Model.to_problem m in
  let res = Lp.Revised.solve prob in
  Alcotest.(check bool) "optimal" true (res.Lp.Revised.status = Lp.Revised.Optimal);
  let ok =
    Lp.Certify.certify_optimal prob ~x:res.Lp.Revised.x
      ~duals:res.Lp.Revised.duals
  in
  assert_certified "untampered" ok;
  (* Violate a bound. *)
  let x = Array.copy res.Lp.Revised.x in
  x.(0) <- x.(0) +. 0.5;
  let bad = Lp.Certify.certify_optimal prob ~x ~duals:res.Lp.Revised.duals in
  Alcotest.(check bool) "bound tampering caught" false (certified bad);
  (* A feasible but suboptimal point must fail the gap/dual checks. *)
  let zero = Array.map (fun l -> if Float.is_finite l then l else 0.) prob.Lp.Problem.lower in
  let slack_fixed = Array.copy zero in
  (* Make it satisfy Ax = b by recomputing slacks (columns nvars..) is
     model-specific; instead tamper the duals, which keeps x intact. *)
  ignore slack_fixed;
  let duals = Array.map (fun y -> y +. 0.25) res.Lp.Revised.duals in
  let bad2 = Lp.Certify.certify_optimal prob ~x:res.Lp.Revised.x ~duals in
  Alcotest.(check bool) "dual tampering caught" false (certified bad2)

(* ---- infeasibility and unboundedness carry checkable certificates ---- *)

let test_farkas_certificate () =
  let m = Lp.Model.create () in
  let x = Lp.Model.add_var m ~obj:1. "x" in
  Lp.Model.add_ge m [ (1., x) ] 2.;
  Lp.Model.add_le m [ (1., x) ] 1.;
  let sol, report = Lp.Model.solve_certified m in
  Alcotest.(check bool)
    "infeasible" true
    (sol.Lp.Model.status = Lp.Model.Infeasible);
  assert_certified "farkas" report;
  (* The raw certificate is exposed at the Revised level too. *)
  let prob = Lp.Model.to_problem m in
  let res = Lp.Revised.solve prob in
  (match res.Lp.Revised.farkas with
  | None -> Alcotest.fail "expected a Farkas certificate"
  | Some farkas ->
      assert_certified "farkas (raw)"
        (Lp.Certify.certify_infeasible prob ~farkas));
  (* A garbage certificate must be rejected. *)
  let junk = Array.make 2 0.1 in
  Alcotest.(check bool) "junk farkas rejected" false
    (certified (Lp.Certify.certify_infeasible prob ~farkas:junk))

let test_unbounded_ray_certificate () =
  let m = Lp.Model.create ~direction:Lp.Model.Maximize () in
  let x = Lp.Model.add_var m ~obj:1. "x" in
  let y = Lp.Model.add_var m "y" in
  Lp.Model.add_le m [ (1., x); (-1., y) ] 0.;
  let sol, report = Lp.Model.solve_certified m in
  Alcotest.(check bool)
    "unbounded" true
    (sol.Lp.Model.status = Lp.Model.Unbounded);
  assert_certified "ray" report;
  let prob = Lp.Model.to_problem m in
  let res = Lp.Revised.solve prob in
  (match res.Lp.Revised.ray with
  | None -> Alcotest.fail "expected an unbounded ray"
  | Some ray ->
      assert_certified "ray (raw)" (Lp.Certify.certify_unbounded prob ~ray));
  (* A direction that violates the constraints is rejected. *)
  let junk = Array.make prob.Lp.Problem.ncols 1. in
  Alcotest.(check bool) "junk ray rejected" false
    (certified (Lp.Certify.certify_unbounded prob ~ray:junk))

(* ---- validation of hostile problem data ---- *)

let test_validate_rejects_bad_data () =
  let expect_invalid what f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: expected Invalid_argument" what
  in
  let base () =
    let m = Lp.Model.create () in
    let x = Lp.Model.add_var m ~obj:1. "x" in
    Lp.Model.add_le m [ (1., x) ] 1.;
    m
  in
  expect_invalid "NaN objective" (fun () ->
      let m = base () in
      let y = Lp.Model.add_var m ~obj:Float.nan "y" in
      Lp.Model.add_le m [ (1., y) ] 1.;
      Lp.Model.solve m);
  expect_invalid "infinite coefficient" (fun () ->
      let m = base () in
      let y = Lp.Model.add_var m "y" in
      Lp.Model.add_le m [ (Float.infinity, y) ] 1.;
      Lp.Model.solve m);
  expect_invalid "NaN rhs" (fun () ->
      let m = base () in
      let y = Lp.Model.add_var m "y" in
      Lp.Model.add_le m [ (1., y) ] Float.nan;
      Lp.Model.solve m);
  expect_invalid "NaN bound" (fun () ->
      let m = base () in
      let y = Lp.Model.add_var m ~lower:Float.nan "y" in
      Lp.Model.add_le m [ (1., y) ] 1.;
      Lp.Model.solve m);
  expect_invalid "lower = +inf" (fun () ->
      let m = base () in
      let y = Lp.Model.add_var m ~lower:Float.infinity ~upper:Float.infinity "y" in
      Lp.Model.add_le m [ (1., y) ] 1.;
      Lp.Model.solve m);
  (* Empty columns are legal. *)
  let m = base () in
  let _free = Lp.Model.add_var m "unused" in
  Lp.Problem.validate (Lp.Model.to_problem m)

(* ---- iteration starvation: rejected, not silently shipped ---- *)

let test_starved_solver_rejected () =
  let m, _ = degenerate_model () in
  List.iter
    (fun budget ->
      let sol, report = Lp.Model.solve_certified ~max_iterations:budget m in
      if sol.Lp.Model.status <> Lp.Model.Optimal then begin
        Alcotest.(check bool)
          (Printf.sprintf "starved (%d) rejected" budget)
          false (certified report);
        (* Values must be zeroed: nobody may consume a half-converged
           iterate. *)
        Array.iter
          (fun v -> check_float "zeroed value" 0. v)
          sol.Lp.Model.values
      end
      else assert_certified (Printf.sprintf "budget %d" budget) report)
    [ 0; 1; 2; 3; 5; 100 ];
  (* The dense oracle obeys its pivot cap the same way. *)
  let sol, report = Dense_simplex.solve_model ~max_pivots:1 m in
  Alcotest.(check bool)
    "dense starved status" true
    (sol.Lp.Model.status = Lp.Model.Iteration_limit);
  Alcotest.(check bool) "dense starved rejected" false (certified report)

let test_deadline_expired_rejected () =
  let m, _ = degenerate_model () in
  (* A deadline that already passed must stop the solve almost at once and
     the result must be explicitly rejected. *)
  let sol, report = Lp.Model.solve_certified ~deadline:0. m in
  Alcotest.(check bool)
    "expired deadline -> iteration limit" true
    (sol.Lp.Model.status = Lp.Model.Iteration_limit);
  Alcotest.(check bool) "rejected" false (certified report);
  (* A generous deadline changes nothing. *)
  let sol, report = Lp.Model.solve_certified ~deadline:60. m in
  Alcotest.(check bool) "optimal" true (sol.Lp.Model.status = Lp.Model.Optimal);
  assert_certified "generous deadline" report

(* ---- randomized corpus: certified-or-detected, never silent ---- *)

let random_model rng =
  let n = 3 + Rng.int rng 8 in
  let rows = 2 + Rng.int rng 6 in
  let dir = if Rng.int rng 2 = 0 then Lp.Model.Minimize else Lp.Model.Maximize in
  let m = Lp.Model.create ~direction:dir () in
  let scale () = Float.pow 10. (float_of_int (Rng.int rng 9 - 4)) in
  let xs =
    Array.init n (fun i ->
        let upper =
          if Rng.int rng 4 = 0 then Float.infinity else scale () *. 2.
        in
        Lp.Model.add_var m ~upper
          ~obj:(Rng.uniform rng ~lo:(-1.) ~hi:1. *. scale ())
          (Printf.sprintf "v%d" i))
  in
  for _ = 1 to rows do
    let terms = ref [] in
    Array.iter
      (fun x ->
        if Rng.int rng 3 > 0 then
          terms := (Rng.uniform rng ~lo:(-1.) ~hi:1. *. scale (), x) :: !terms)
      xs;
    if !terms <> [] then
      Lp.Model.add_le m !terms (Rng.float rng (10. *. scale ()))
  done;
  m

let test_random_sweep () =
  let rng = Rng.create 0x5EED in
  let optimal = ref 0 and certified_n = ref 0 in
  for _ = 1 to 60 do
    let m = random_model rng in
    let sol, report = Lp.Model.solve_certified m in
    (match sol.Lp.Model.status with
    | Lp.Model.Optimal ->
        incr optimal;
        if certified report then incr certified_n
        else
          Alcotest.failf "optimal but uncertified: %s" (reasons_of report)
    | Lp.Model.Infeasible | Lp.Model.Unbounded ->
        (* Claimed with a certificate, or honestly rejected — both are
           acceptable outcomes; silent nonsense is not. *)
        ()
    | Lp.Model.Iteration_limit ->
        Alcotest.(check bool) "limit rejected" false (certified report))
  done;
  Alcotest.(check bool)
    (Printf.sprintf "sweep found optima (%d, %d certified)" !optimal
       !certified_n)
    true
    (!optimal > 10 && !certified_n = !optimal)

let () =
  Alcotest.run "lp-adversarial"
    [
      ( "corpus",
        [
          Alcotest.test_case "corpus certified" `Quick test_corpus_certified;
          Alcotest.test_case "corpus objectives" `Quick test_corpus_objectives;
          Alcotest.test_case "agrees with dense" `Quick
            test_corpus_agrees_with_dense;
        ] );
      ( "certificates",
        [
          Alcotest.test_case "tampered solution rejected" `Quick
            test_tampered_solution_rejected;
          Alcotest.test_case "farkas certificate" `Quick test_farkas_certificate;
          Alcotest.test_case "unbounded ray certificate" `Quick
            test_unbounded_ray_certificate;
        ] );
      ( "defenses",
        [
          Alcotest.test_case "validate rejects bad data" `Quick
            test_validate_rejects_bad_data;
          Alcotest.test_case "starved solver rejected" `Quick
            test_starved_solver_rejected;
          Alcotest.test_case "expired deadline rejected" `Quick
            test_deadline_expired_rejected;
          Alcotest.test_case "random sweep" `Quick test_random_sweep;
        ] );
    ]
