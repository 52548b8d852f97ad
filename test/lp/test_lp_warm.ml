(* Warm-start tests: feeding a previous solve's basis token back into a
   later solve must never change the answer — only (ideally) the work done
   to reach it.  Covers: re-solving the same model, re-solving after an
   rhs/bound perturbation, the Bland's-rule fallback under a warm start,
   structurally incompatible tokens, and a randomized warm = cold sweep. *)

let check_float = Alcotest.(check (float 1e-6))

let iterations (sol : Lp.Model.solution) =
  match sol.Lp.Model.stats with
  | Some s -> s.Lp.Revised.iterations
  | None -> Alcotest.fail "expected revised-solver stats"

let get_basis (sol : Lp.Model.solution) =
  match sol.Lp.Model.basis with
  | Some b -> b
  | None -> Alcotest.fail "expected a basis token"

(* A small shipping-style LP: maximize value collected subject to a budget
   row and per-item capacities.  [budget] is the knob the perturbation
   tests turn. *)
let build_transport ~budget =
  let m = Lp.Model.create ~direction:Lp.Model.Maximize () in
  let n = 12 in
  let xs =
    Array.init n (fun i ->
        Lp.Model.add_var m ~upper:(1. +. float_of_int (i mod 4))
          ~obj:(1. +. (0.37 *. float_of_int i))
          (Printf.sprintf "x%d" i))
  in
  let cost i = 0.5 +. (0.21 *. float_of_int ((i * 7) mod n)) in
  Lp.Model.add_le m
    (Array.to_list (Array.mapi (fun i x -> (cost i, x)) xs))
    budget;
  for r = 0 to 3 do
    let terms = ref [] in
    Array.iteri (fun i x -> if i mod 4 = r then terms := (1., x) :: !terms) xs;
    Lp.Model.add_le m !terms 3.5
  done;
  m

let test_warm_same_model () =
  let m = build_transport ~budget:6. in
  let cold = Lp.Model.solve m in
  Alcotest.(check bool) "cold optimal" true
    (cold.Lp.Model.status = Lp.Model.Optimal);
  let warm = Lp.Model.solve ~warm_start:(get_basis cold) m in
  Alcotest.(check bool) "optimal" true (warm.Lp.Model.status = Lp.Model.Optimal);
  check_float "same objective" cold.Lp.Model.objective warm.Lp.Model.objective;
  (* Re-solving from the optimal basis must be (near-)free: no more than a
     repair pivot or two, versus a full cold solve. *)
  Alcotest.(check bool)
    (Printf.sprintf "warm iterations (%d) < cold (%d)" (iterations warm)
       (iterations cold))
    true
    (iterations warm < iterations cold || iterations cold = 0)

let test_warm_perturbed_budget () =
  let cold0 = Lp.Model.solve (build_transport ~budget:6.) in
  let basis = get_basis cold0 in
  List.iter
    (fun (budget, expect_cheaper) ->
      let m = build_transport ~budget in
      let cold = Lp.Model.solve m in
      let warm = Lp.Model.solve ~warm_start:basis m in
      Alcotest.(check bool) "optimal" true
        (warm.Lp.Model.status = Lp.Model.Optimal);
      check_float
        (Printf.sprintf "budget %g: warm = cold objective" budget)
        cold.Lp.Model.objective warm.Lp.Model.objective;
      (* A nearby budget should re-solve in no more pivots than a cold
         start; distant budgets only promise correctness. *)
      if expect_cheaper then
        Alcotest.(check bool)
          (Printf.sprintf "budget %g: warm iterations (%d) <= cold (%d)"
             budget (iterations warm) (iterations cold))
          true
          (iterations warm <= iterations cold))
    [ (6.3, true); (5.7, true); (9., false); (2.5, false) ]

let test_warm_bland_fallback () =
  (* A degenerate LP (many redundant rows through the origin) solved with
     [bland_after = 0], so every pivot uses Bland's rule from the start.
     The warm-started path must coexist with the fallback and still agree
     with the dense reference. *)
  let build () =
    let m = Lp.Model.create ~direction:Lp.Model.Maximize () in
    let x = Lp.Model.add_var m ~obj:1. "x" in
    let y = Lp.Model.add_var m ~obj:1. "y" in
    let z = Lp.Model.add_var m ~obj:0.5 "z" in
    Lp.Model.add_le m [ (1., x); (1., y) ] 0.;
    Lp.Model.add_le m [ (1., x); (2., y) ] 0.;
    Lp.Model.add_le m [ (2., x); (1., y) ] 0.;
    Lp.Model.add_le m [ (1., x); (1., y); (1., z) ] 4.;
    m
  in
  let cold = Lp.Model.solve ~bland_after:0 (build ()) in
  Alcotest.(check bool) "cold optimal" true
    (cold.Lp.Model.status = Lp.Model.Optimal);
  check_float "cold objective" 2. cold.Lp.Model.objective;
  let warm = Lp.Model.solve ~bland_after:0 ~warm_start:(get_basis cold) (build ()) in
  Alcotest.(check bool) "warm optimal" true
    (warm.Lp.Model.status = Lp.Model.Optimal);
  check_float "warm objective" 2. warm.Lp.Model.objective

let test_warm_incompatible_ignored () =
  (* A token from a model of a different shape must be silently ignored,
     not crash or corrupt the solve. *)
  let small = Lp.Model.create ~direction:Lp.Model.Maximize () in
  let s = Lp.Model.add_var small ~upper:1. ~obj:1. "s" in
  Lp.Model.add_le small [ (1., s) ] 1.;
  let token = get_basis (Lp.Model.solve small) in
  let m = build_transport ~budget:6. in
  let cold = Lp.Model.solve m in
  let warm = Lp.Model.solve ~warm_start:token m in
  check_float "mismatched token ignored" cold.Lp.Model.objective
    warm.Lp.Model.objective

(* The [Solve] span's [start] attribute names the path that ran, not
   what was passed: a wrong-length token is ignored, for the problem's
   start when it has one and the all-slack basis otherwise. *)
let test_warm_span_attribute () =
  let prob = Lp.Model.to_problem (build_transport ~budget:6.) in
  let prior = (Lp.Revised.solve prob).Lp.Revised.basis in
  let bad = { Lp.Revised.vars = [||]; at_upper = [||] } in
  let with_start = { prob with Lp.Problem.start = Some prior } in
  let traced_start ?basis prob =
    let sink = Obs.Trace.create () in
    Obs.Trace.install (Some sink);
    Fun.protect
      ~finally:(fun () -> Obs.Trace.install None)
      (fun () -> ignore (Lp.Revised.solve ?basis prob));
    match Obs.Trace.events sink with
    | [ e ] -> (
        match Obs.Trace.find_attr e "start" with
        | Some (Obs.Trace.Str s) -> s
        | _ -> Alcotest.fail "span lacks a string start attribute")
    | es -> Alcotest.failf "expected one span, got %d" (List.length es)
  in
  List.iter
    (fun (label, basis, prob, expected) ->
      Alcotest.(check string) label expected (traced_start ?basis prob))
    [
      ("no token, no start", None, prob, "cold");
      ("wrong-length token", Some bad, prob, "cold");
      ("previous solve's basis", Some prior, prob, "warm");
      ("no token, the problem's start", None, with_start, "crash");
      ("wrong-length token, the problem's start", Some bad, with_start, "crash");
      ("token before the problem's start", Some prior, with_start, "warm");
    ]

let warm_equals_cold_random =
  QCheck.Test.make ~name:"warm start never changes the optimum" ~count:80
    (QCheck.make ~print:string_of_int QCheck.Gen.(0 -- 100_000))
    (fun seed ->
      let rand = Random.State.make [| seed + 7177 |] in
      let nvars = 8 + Random.State.int rand 10 in
      let nrows = 6 + Random.State.int rand 10 in
      let build rhs_scale =
        let m = Lp.Model.create ~direction:Lp.Model.Maximize () in
        let rand = Random.State.make [| seed + 7177 |] in
        let vars =
          Array.init nvars (fun i ->
              Lp.Model.add_var m ~upper:6.
                ~obj:(Random.State.float rand 5. -. 1.)
                (Printf.sprintf "x%d" i))
        in
        for _ = 1 to nrows do
          let terms = ref [] in
          Array.iter
            (fun v ->
              if Random.State.float rand 1. < 0.4 then
                terms := (Random.State.float rand 4. -. 0.5, v) :: !terms)
            vars;
          Lp.Model.add_le m !terms (rhs_scale *. Random.State.float rand 15.)
        done;
        m
      in
      (* Solve the base instance, then warm-start a perturbed-rhs copy and
         compare against its cold solve. *)
      let base = Lp.Model.solve (build 1.) in
      match base.Lp.Model.basis with
      | None -> true (* infeasible/unbounded base: nothing to warm-start *)
      | Some basis ->
          let scale = 0.8 +. Random.State.float rand 0.5 in
          let cold = Lp.Model.solve (build scale) in
          let warm = Lp.Model.solve ~warm_start:basis (build scale) in
          (match (cold.Lp.Model.status, warm.Lp.Model.status) with
          | Lp.Model.Optimal, Lp.Model.Optimal ->
              Float.abs (cold.Lp.Model.objective -. warm.Lp.Model.objective)
              <= 1e-5 *. (1. +. Float.abs cold.Lp.Model.objective)
          | sc, sw -> Lp.Model.status_equal sc sw))

let () =
  Alcotest.run "lp-warm"
    [
      ( "warm-start",
        [
          Alcotest.test_case "same model re-solve" `Quick test_warm_same_model;
          Alcotest.test_case "perturbed budget" `Quick
            test_warm_perturbed_budget;
          Alcotest.test_case "bland fallback" `Quick test_warm_bland_fallback;
          Alcotest.test_case "incompatible token ignored" `Quick
            test_warm_incompatible_ignored;
          Alcotest.test_case "warm span attribute" `Quick
            test_warm_span_attribute;
        ]
        @ List.map QCheck_alcotest.to_alcotest [ warm_equals_cold_random ] );
    ]
