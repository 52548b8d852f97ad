(* Randomized differential testing of the two simplex implementations.

   Each seed deterministically generates a small bounded-variable LP which
   is then solved three ways: by the sparse revised simplex (cold and
   warm-started from its own basis), and by the independent dense tableau
   simplex with the variable bounds materialized as explicit rows.  The
   verdicts (optimal / infeasible / unbounded) must agree exactly and the
   optimal objectives to 1e-6 — the objective value at an optimum is
   unique even when the optimal vertex is not, so this is a sound oracle.
   A final sweep re-solves perturbed-rhs copies warm vs cold. *)

open Lp_corpus

let dense_sense = function
  | Lp.Model.Le -> Dense_simplex.Le
  | Lp.Model.Ge -> Dense_simplex.Ge
  | Lp.Model.Eq -> Dense_simplex.Eq

let solve_dense spec =
  let n = Array.length spec.lower in
  let unit i = Array.init n (fun j -> if j = i then 1. else 0.) in
  let bound_rows =
    List.concat
      (List.init n (fun i ->
           (if spec.lower.(i) > 0. then
              [ (unit i, Dense_simplex.Ge, spec.lower.(i)) ]
            else [])
           @
           if spec.upper.(i) < infinity then
             [ (unit i, Dense_simplex.Le, spec.upper.(i)) ]
           else []))
  in
  let rows =
    Array.append
      (Array.map (fun (c, s, r) -> (Array.copy c, dense_sense s, r)) spec.rows)
      (Array.of_list bound_rows)
  in
  Dense_simplex.solve ~maximize:spec.maximize ~obj:(Array.copy spec.obj)
    ~constraints:rows ()

let model_status_name = function
  | Lp.Model.Optimal -> "optimal"
  | Lp.Model.Infeasible -> "infeasible"
  | Lp.Model.Unbounded -> "unbounded"
  | Lp.Model.Iteration_limit -> "iteration-limit"

let close a b = Float.abs (a -. b) <= 1e-6 *. (1. +. Float.max (Float.abs a) (Float.abs b))

let check_close ~seed ~what a b =
  if not (close a b) then
    Alcotest.failf "seed %d: %s objectives differ: %.9g vs %.9g" seed what a b

let n_cases = 200

let test_revised_vs_dense () =
  let optimal = ref 0 and infeasible = ref 0 and unbounded = ref 0 in
  for seed = 0 to n_cases - 1 do
    let spec = gen_spec (Rng.create seed) in
    let model = build_model spec in
    let rev = Lp.Model.solve model in
    let dense = solve_dense spec in
    (match (rev.Lp.Model.status, dense.Dense_simplex.status) with
    | Lp.Model.Optimal, Dense_simplex.Optimal ->
        incr optimal;
        check_close ~seed ~what:"revised vs dense" rev.Lp.Model.objective
          dense.Dense_simplex.objective
    | Lp.Model.Infeasible, Dense_simplex.Infeasible -> incr infeasible
    | Lp.Model.Unbounded, Dense_simplex.Unbounded -> incr unbounded
    | rs, ds ->
        Alcotest.failf "seed %d: verdicts differ: revised %s vs dense %s" seed
          (model_status_name rs) (model_status_name ds));
    (* Warm-starting the revised solver from its own final basis must
       reproduce its verdict and objective exactly. *)
    match rev.Lp.Model.basis with
    | None -> ()
    | Some basis ->
        let warm = Lp.Model.solve ~warm_start:basis model in
        if not (Lp.Model.status_equal warm.Lp.Model.status rev.Lp.Model.status)
        then
          Alcotest.failf "seed %d: warm re-solve changed the verdict to %s"
            seed
            (model_status_name warm.Lp.Model.status);
        if rev.Lp.Model.status = Lp.Model.Optimal then
          check_close ~seed ~what:"warm vs cold" warm.Lp.Model.objective
            rev.Lp.Model.objective
  done;
  (* The generator must keep exercising all three verdicts, or the
     differential coverage silently rots. *)
  Alcotest.(check bool)
    (Printf.sprintf "all verdicts covered (opt %d, inf %d, unb %d)" !optimal
       !infeasible !unbounded)
    true
    (!optimal > 0 && !infeasible > 0 && !unbounded > 0)

(* Perturbing every rhs slightly and re-solving from the unperturbed basis
   is the planner's replanning pattern; warm and cold must agree on the
   perturbed model. *)
let test_warm_start_perturbed () =
  for seed = 0 to (n_cases / 4) - 1 do
    let spec = gen_spec (Rng.create (10_000 + seed)) in
    let rev = Lp.Model.solve (build_model spec) in
    match rev.Lp.Model.basis with
    | None -> ()
    | Some basis ->
        let prng = Rng.create (20_000 + seed) in
        let spec' =
          {
            spec with
            rows =
              Array.map
                (fun (c, s, rhs) ->
                  (c, s, rhs +. Rng.uniform prng ~lo:(-0.1) ~hi:0.1))
                spec.rows;
          }
        in
        let model' = build_model spec' in
        let cold = Lp.Model.solve model' in
        let warm = Lp.Model.solve ~warm_start:basis model' in
        if not (Lp.Model.status_equal warm.Lp.Model.status cold.Lp.Model.status)
        then
          Alcotest.failf
            "seed %d: perturbed verdicts differ: warm %s vs cold %s" seed
            (model_status_name warm.Lp.Model.status)
            (model_status_name cold.Lp.Model.status);
        if cold.Lp.Model.status = Lp.Model.Optimal then
          check_close ~seed ~what:"perturbed warm vs cold"
            warm.Lp.Model.objective cold.Lp.Model.objective
  done

let () =
  Alcotest.run "lp_differential"
    [
      ( "differential",
        [
          Alcotest.test_case "revised (cold+warm) vs dense, 200 random LPs"
            `Quick test_revised_vs_dense;
          Alcotest.test_case "perturbed rhs: warm = cold" `Quick
            test_warm_start_perturbed;
        ] );
    ]
