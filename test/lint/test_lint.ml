(* Fixture-driven tests for the typed repolint engine.  Each fixture is
   a tiny compilable (or deliberately broken) .ml file; the fixtures
   build as a library (see fixtures/dune) so dune produces .cmt
   typedtrees, and each test lints a fixture's .cmt under a synthetic
   logical path so the zone rules (R1 outside obs/bench, R4 in planner
   paths, R5 in lib/, R6/R7 outside test/) are exercised without
   touching real code. *)

open Repolint_lib

let cmt_of fixture =
  let base = Filename.remove_extension fixture in
  "fixtures/.lint_fixtures.objs/byte/lint_fixtures__"
  ^ String.capitalize_ascii base ^ ".cmt"

let result ?taint ~logical fixture =
  let taint = match taint with Some t -> t | None -> Lint_taint.create () in
  Lint_engine.lint_cmt ~taint ~path:logical (cmt_of fixture)

let lint ?taint ~logical fixture = (result ?taint ~logical fixture).findings

let hits findings =
  List.map (fun (f : Finding.t) -> (f.rule, f.line)) findings

let hit = Alcotest.(pair string int)

let check_hits name expected findings =
  Alcotest.check (Alcotest.list hit) name expected (hits findings)

let check_suppressed name expected (r : Lint_engine.result) =
  Alcotest.check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
    name expected
    (List.sort compare r.suppressed)

(* ---- R1: determinism ---- *)

let test_r1_fires () =
  check_hits "R1 on each entropy primitive; seeded state also fires in lib"
    [ ("R1", 1); ("R1", 2); ("R1", 3); ("R1", 4); ("R1", 5); ("R1", 5) ]
    (lint ~logical:"lib/core/r1_entropy.ml" "r1_entropy.ml")

let test_r1_zones () =
  check_hits "R1 exempt in bench/" []
    (lint ~logical:"bench/r1_entropy.ml" "r1_entropy.ml");
  check_hits "R1 exempt in lib/obs/" []
    (lint ~logical:"lib/obs/r1_entropy.ml" "r1_entropy.ml");
  check_hits "in test/ only the seeded Random.State line is exempt"
    [ ("R1", 1); ("R1", 2); ("R1", 3); ("R1", 4) ]
    (lint ~logical:"test/core/r1_entropy.ml" "r1_entropy.ml")

(* ---- R2: hash-order iteration ---- *)

let test_r2_fires () =
  check_hits "R2 on bare fold/iter"
    [ ("R2", 1); ("R2", 2) ]
    (lint ~logical:"lib/core/r2_hash_order.ml" "r2_hash_order.ml")

let test_r2_sort_feed () =
  check_hits "folds feeding a sort are exempt" []
    (lint ~logical:"lib/core/r2_sorted_ok.ml" "r2_sorted_ok.ml")

(* ---- R3: typed polymorphic comparison ---- *)

let test_r3 () =
  (* Fires only on nominal/polymorphic instantiations (record, option of
     record, type variable); scalars and structural compositions of
     scalars (int list, int * float, float array) are typed-safe. *)
  check_hits "R3 on nominal or polymorphic instantiations"
    [ ("R3", 3); ("R3", 4); ("R3", 5); ("R3", 6) ]
    (lint ~logical:"lib/core/r3_poly_compare.ml" "r3_poly_compare.ml")

(* ---- R4: partial accessors in planner paths ---- *)

let test_r4_fires () =
  check_hits "R4 on each partial accessor"
    [ ("R4", 1); ("R4", 2); ("R4", 3); ("R4", 4); ("R4", 6); ("R4", 7) ]
    (lint ~logical:"lib/lp/r4_partial.ml" "r4_partial.ml")

let test_r4_zones () =
  check_hits "R4 only in lib/core + lib/lp" []
    (lint ~logical:"lib/sensor/r4_partial.ml" "r4_partial.ml")

(* ---- R5: stdout hygiene ---- *)

let test_r5_fires () =
  check_hits "R5 on stdout printers in lib/"
    [ ("R5", 1); ("R5", 2) ]
    (lint ~logical:"lib/experiments/r5_print.ml" "r5_print.ml")

let test_r5_zones () =
  check_hits "R5 inactive outside lib/" []
    (lint ~logical:"bin/r5_print.ml" "r5_print.ml")

(* ---- R6: certification taint ---- *)

let test_r6_raw_to_sink () =
  (* Replan.create gets the uncertified plan; Replan.consider then gets
     the policy value built from it. *)
  check_hits "raw Revised.solve reaching Replan fires at each sink"
    [ ("R6", 14); ("R6", 15) ]
    (lint ~logical:"lib/lintfix/r6_raw_replan.ml" "r6_raw_replan.ml")

let test_r6_certified_clean () =
  check_hits "the certified chain sanitizes the same flow" []
    (lint ~logical:"lib/lintfix/r6_certified_ok.ml" "r6_certified_ok.ml")

let test_r6_handbuilt () =
  check_hits "hand-built solution records mint taint"
    [ ("R6", 17) ]
    (lint ~logical:"lib/lintfix/r6_handbuilt.ml" "r6_handbuilt.ml")

let test_r6_affine_response () =
  check_hits "a raw affine point reaching a Server response fires; its \
              certified form does not"
    [ ("R6", 25) ]
    (lint ~logical:"lib/lintfix/r6_affine_response.ml" "r6_affine_response.ml")

let test_r6_zone () =
  check_hits "R6 is off in test/ (tests hand-build plans on purpose)" []
    (lint ~logical:"test/core/r6_raw_replan.ml" "r6_raw_replan.ml")

let test_r6_cross_module () =
  (* pass 1 summarizes the source module; pass 2 picks the taint up
     through the cross-module reference *)
  let taint = Lint_taint.create () in
  Lint_engine.summarize ~taint ~path:"lib/lintfix/taint_source.ml"
    (cmt_of "taint_source.ml");
  check_hits "taint crosses compilation units via summaries"
    [ ("R6", 8) ]
    (lint ~taint ~logical:"lib/lintfix/r6_cross_module.ml" "r6_cross_module.ml");
  check_hits "without the summary pass the reference is opaque" []
    (lint ~logical:"lib/lintfix/r6_cross_module.ml" "r6_cross_module.ml")

let test_r6_allow_scopes () =
  let r = result ~logical:"lib/lintfix/r6_allow.ml" "r6_allow.ml" in
  check_hits "expression- and binding-scope allows suppress" [] r.findings;
  check_suppressed "both suppressions are tallied" [ ("R6", 2) ] r;
  let r = result ~logical:"lib/lintfix/r6_allow_file.ml" "r6_allow_file.ml" in
  check_hits "file-scope allow suppresses" [] r.findings;
  check_suppressed "file-scope suppression is tallied" [ ("R6", 1) ] r

(* ---- R7: domain safety ---- *)

let test_r7_ref_capture () =
  check_hits "unlisted spawn + captured ref"
    [ ("R7", 5); ("R7", 5) ]
    (lint ~logical:"lib/lintfix/r7_spawn_ref.ml" "r7_spawn_ref.ml")

let test_r7_atomic_capture () =
  check_hits "atomic capture is fine but the region still fires"
    [ ("R7", 6) ]
    (lint ~logical:"lib/lintfix/r7_spawn_atomic.ml" "r7_spawn_atomic.ml")

let test_r7_allowlisted () =
  check_hits "the allowlisted (file, binding) region is exempt" []
    (lint ~logical:"lib/serve/server.ml" "r7_allowlisted.ml")

let test_r7_transitive () =
  check_hits "mutation one local call deep is still a capture"
    [ ("R7", 6); ("R7", 7) ]
    (lint ~logical:"lib/lintfix/r7_transitive.ml" "r7_transitive.ml")

(* ---- suppression: [@lint.allow] ---- *)

let test_allow_attr () =
  (* Expression, binding, and file-wide allows each suppress exactly
     their target; the unannotated fold on line 2 still fires. *)
  let r = result ~logical:"lib/core/allow_attr.ml" "allow_attr.ml" in
  check_hits "attribute suppresses exactly its target" [ ("R2", 2) ]
    r.findings;
  check_suppressed "per-rule suppression tally"
    [ ("R1", 1); ("R2", 2); ("R5", 1) ]
    r

(* ---- missing typedtrees ---- *)

let test_missing_cmt () =
  (* bad_syntax.ml is excluded from the fixture library (it does not
     parse), so it has no .cmt — exactly the shape of a file that fails
     to compile in a real run. *)
  (match lint ~logical:"lib/core/bad_syntax.ml" "bad_syntax.ml" with
  | [ f ] -> Alcotest.(check string) "PARSE rule" "PARSE" f.Finding.rule
  | fs ->
      Alcotest.failf "expected exactly one PARSE finding, got %d"
        (List.length fs));
  match Lint_engine.missing_cmt ~path:"lib/core/ghost.ml" with
  | { Lint_engine.findings = [ f ]; _ } ->
      Alcotest.(check string) "missing-cmt rule" "PARSE" f.Finding.rule
  | _ -> Alcotest.fail "expected exactly one PARSE finding"

(* ---- baseline semantics ---- *)

let test_baseline_suppresses_exactly () =
  let findings = lint ~logical:"lib/core/r2_hash_order.ml" "r2_hash_order.ml" in
  let first = List.hd findings in
  let baseline =
    Lint_baseline.parse_string
      (Printf.sprintf "# comment\n\n%s\n" (Finding.baseline_key first))
  in
  let fresh, accepted =
    List.partition (fun f -> not (Lint_baseline.mem baseline f)) findings
  in
  check_hits "only the keyed finding is accepted" [ ("R2", 1) ] accepted;
  check_hits "the other finding stays fresh" [ ("R2", 2) ] fresh

let test_baseline_stale () =
  let findings = lint ~logical:"lib/core/r2_hash_order.ml" "r2_hash_order.ml" in
  let baseline =
    Lint_baseline.parse_string "R2 lib/core/r2_hash_order.ml:999\n"
  in
  Alcotest.(check (list string))
    "unmatched entries are stale"
    [ "R2 lib/core/r2_hash_order.ml:999" ]
    (Lint_baseline.stale baseline findings)

let test_baseline_roundtrip () =
  let findings = lint ~logical:"lib/core/r2_hash_order.ml" "r2_hash_order.ml" in
  let tmp = Filename.temp_file "lint_baseline" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove tmp)
    (fun () ->
      Lint_baseline.write tmp findings;
      let reloaded = Lint_baseline.load tmp in
      Alcotest.(check (list string))
        "write/load round-trips the keys"
        (List.map Finding.baseline_key findings)
        reloaded;
      Alcotest.(check (list string))
        "a regenerated baseline is never stale" []
        (Lint_baseline.stale reloaded findings))

let () =
  Alcotest.run "repolint"
    [
      ( "rules",
        [
          Alcotest.test_case "R1 fires" `Quick test_r1_fires;
          Alcotest.test_case "R1 zones" `Quick test_r1_zones;
          Alcotest.test_case "R2 fires" `Quick test_r2_fires;
          Alcotest.test_case "R2 sort-feed exemption" `Quick test_r2_sort_feed;
          Alcotest.test_case "R3 typed" `Quick test_r3;
          Alcotest.test_case "R4 fires" `Quick test_r4_fires;
          Alcotest.test_case "R4 zones" `Quick test_r4_zones;
          Alcotest.test_case "R5 fires" `Quick test_r5_fires;
          Alcotest.test_case "R5 zones" `Quick test_r5_zones;
        ] );
      ( "taint",
        [
          Alcotest.test_case "R6 raw -> sink" `Quick test_r6_raw_to_sink;
          Alcotest.test_case "R6 certified clean" `Quick
            test_r6_certified_clean;
          Alcotest.test_case "R6 hand-built record" `Quick test_r6_handbuilt;
          Alcotest.test_case "R6 affine point to a response" `Quick
            test_r6_affine_response;
          Alcotest.test_case "R6 zone" `Quick test_r6_zone;
          Alcotest.test_case "R6 cross-module" `Quick test_r6_cross_module;
          Alcotest.test_case "R6 allow scopes" `Quick test_r6_allow_scopes;
        ] );
      ( "domains",
        [
          Alcotest.test_case "R7 ref capture" `Quick test_r7_ref_capture;
          Alcotest.test_case "R7 atomic capture" `Quick
            test_r7_atomic_capture;
          Alcotest.test_case "R7 allowlisted region" `Quick
            test_r7_allowlisted;
          Alcotest.test_case "R7 transitive capture" `Quick
            test_r7_transitive;
        ] );
      ( "suppression",
        [
          Alcotest.test_case "[@lint.allow]" `Quick test_allow_attr;
          Alcotest.test_case "baseline keys" `Quick
            test_baseline_suppresses_exactly;
          Alcotest.test_case "stale baseline" `Quick test_baseline_stale;
          Alcotest.test_case "baseline round-trip" `Quick
            test_baseline_roundtrip;
        ] );
      ( "robustness",
        [ Alcotest.test_case "missing cmt" `Quick test_missing_cmt ] );
    ]
