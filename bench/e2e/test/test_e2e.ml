(* Unit tests for the end-to-end benchmark's own helpers: order
   statistics, the open-loop arrival schedule, span self times and the
   unattributed residual. *)

open E2e_kit

let close = Alcotest.float 1e-12

(* ---- percentiles ---- *)

let test_percentile () =
  let a = Array.init 100 (fun i -> float_of_int (100 - i)) in
  Alcotest.check close "p50 of 1..100" 50. (Stats.percentile ~p:50. a);
  Alcotest.check close "p99 of 1..100" 99. (Stats.percentile ~p:99. a);
  Alcotest.check close "p100 is the max" 100. (Stats.percentile ~p:100. a);
  Alcotest.check close "odd median" 2. (Stats.median [| 3.; 1.; 2. |]);
  Alcotest.check close "even median" 2.5 (Stats.median [| 4.; 1.; 2.; 3. |])

let test_paired_median () =
  (* pairs (1, 4), (9, 2), (3, 8): minima 1, 2, 3 *)
  Alcotest.check close "median of pair minima" 2. (Stats.paired_median [| 1.; 9.; 3.; 4.; 2.; 8. |]);
  Alcotest.check close "an odd last sample is left out" 2. (Stats.paired_median [| 1.; 9.; 3.; 4.; 2.; 8.; 0. |]);
  (* a slow spell over the first half is outvoted by the second *)
  Alcotest.check close "slow first half" 1. (Stats.paired_median [| 5.; 5.; 1.; 1. |]);
  Alcotest.check close "one sample" 7. (Stats.paired_median [| 7. |])

let test_tail_rule () =
  let check n expect =
    Alcotest.(check (option (float 0.))) (Printf.sprintf "n=%d" n) expect (Stats.tail_percentile n)
  in
  (* the highest percentile with at least ten samples beyond its rank *)
  check 10 None;
  check 19 None;
  check 20 (Some 50.);
  check 40 (Some 75.);
  check 100 (Some 90.);
  check 200 (Some 95.);
  check 999 (Some 95.);
  check 1000 (Some 99.);
  check 9999 (Some 99.);
  check 10_000 (Some 99.9)

let test_quartiles () =
  (* reference values from Python's statistics.quantiles(xs, n=4) *)
  let q1, q2, q3 = Stats.quartiles (Array.init 10 (fun i -> float_of_int (i + 1))) in
  Alcotest.check close "q1" 2.75 q1;
  Alcotest.check close "q2" 5.5 q2;
  Alcotest.check close "q3" 8.25 q3;
  let q1, q2, q3 = Stats.quartiles [| 5.; 1. |] in
  Alcotest.check close "two samples q1" 0. q1;
  Alcotest.check close "two samples q2" 3. q2;
  Alcotest.check close "two samples q3" 6. q3;
  Alcotest.check close "iqr/median" (5.5 /. 5.5) (Stats.iqr_frac (Array.init 10 (fun i -> float_of_int (i + 1))));
  Alcotest.check close "spread" 0.5 (Stats.spread [| 2.; 3.; 2.5 |]);
  Alcotest.check close "spread of one" 0. (Stats.spread [| 2. |])

(* ---- Poisson schedule ---- *)

let test_poisson_determinism () =
  let a = Poisson.schedule ~seed:7 ~rate:400. ~count:4000 in
  let b = Poisson.schedule ~seed:7 ~rate:400. ~count:4000 in
  let c = Poisson.schedule ~seed:8 ~rate:400. ~count:4000 in
  Alcotest.(check (array (float 0.))) "same seed, same schedule" a b;
  Alcotest.(check bool) "another seed, another schedule" false (a = c);
  Alcotest.(check int) "count arrivals" 4000 (Array.length a);
  Alcotest.(check bool) "due times are positive and increase" true
    (a.(0) > 0. && Array.for_all Fun.id (Array.init (Array.length a - 1) (fun i -> a.(i) < a.(i + 1))));
  (* the 4000th arrival is due at 10 s on average, standard deviation ~0.16 s *)
  Alcotest.(check bool) "about count / rate seconds" true (Float.abs (a.(3999) -. 10.) < 0.8);
  Alcotest.(check int) "no arrivals" 0 (Array.length (Poisson.schedule ~seed:7 ~rate:400. ~count:0))

(* ---- spans ---- *)

let span ?(parent = 0) ?(op = 1) id name start_s dur_s =
  { Spans.id; parent; op; kind = Obs.Trace.Plan; name; start_s; dur_s }

let self_of l id =
  match List.find_opt (fun ((s : Spans.span), _) -> s.Spans.id = id) l with
  | Some (_, v) -> v
  | None -> Alcotest.fail "span missing"

let test_self_time () =
  let spans =
    [
      span 1 "op" 0. 10.;
      span ~parent:1 2 "a" 1. 3.;
      (* overlaps a: the union [1, 6] is covered once *)
      span ~parent:1 3 "b" 3. 3.;
      span ~parent:3 4 "c" 4. 1.;
      (* sticks out of its parent: only [9, 10] counts against it *)
      span ~parent:1 5 "d" 9. 4.;
    ]
  in
  let self = Spans.self_times spans in
  (* children cover [1, 6] and, clipped, [9, 10] *)
  Alcotest.check close "root minus the union of its children" 4. (self_of self 1);
  Alcotest.check close "leaf keeps its duration" 3. (self_of self 2);
  Alcotest.check close "middle minus its child" 2. (self_of self 3);
  Alcotest.check close "leaf" 1. (self_of self 4);
  let by_name = Spans.self_by_name spans in
  Alcotest.(check (list string)) "names sorted" [ "a"; "b"; "c"; "d"; "op" ]
    (List.map fst by_name)

let test_recorder () =
  let t = Spans.create ~enabled:true in
  let v =
    Spans.op t Obs.Trace.Plan "op" (fun () ->
        Spans.span t Obs.Trace.Solve "solve" (fun () -> Spans.span t Obs.Trace.Certify "certify" (fun () -> 41))
        + 1)
  in
  Alcotest.(check int) "value passes through" 42 v;
  ignore (Spans.op t Obs.Trace.Plan "op" (fun () -> ()));
  let l = Spans.spans t in
  Alcotest.(check (list (triple int int int))) "ids, parents, ops"
    [ (1, 0, 1); (2, 1, 1); (3, 2, 1); (4, 0, 2) ]
    (List.map (fun (s : Spans.span) -> (s.Spans.id, s.Spans.parent, s.Spans.op)) l);
  Alcotest.(check int) "last op" 2 (Spans.last_op t);
  (* a span closes even when its call raises *)
  (try Spans.span t Obs.Trace.Plan "boom" (fun () -> failwith "x") with Failure _ -> ());
  Alcotest.(check int) "count" 5 (List.length (Spans.spans t));
  let off = Spans.create ~enabled:false in
  Alcotest.(check int) "disabled recorder runs the call" 3 (Spans.op off Obs.Trace.Plan "op" (fun () -> 3));
  Alcotest.(check int) "and records nothing" 0 (List.length (Spans.spans off))

let test_jsonl () =
  let spans = [ span 1 "op" 1.5 2.; span ~parent:1 2 "lp.revised.solve" 1.75 1. ] in
  let path = Filename.temp_file "e2e_spans" ".jsonl" in
  Spans.write_jsonl path spans;
  let read = Obs.Trace.read_jsonl path in
  Sys.remove path;
  match read with
  | Error msg -> Alcotest.fail msg
  | Ok events ->
      Alcotest.(check int) "two events" 2 (List.length events);
      let child = List.nth events 1 in
      Alcotest.(check (option (float 0.))) "parent_id" (Some 1.) (Obs.Trace.number child "parent_id");
      Alcotest.(check (option (float 0.))) "span_id" (Some 2.) (Obs.Trace.number child "span_id");
      Alcotest.(check (option (float 0.))) "op_id" (Some 1.) (Obs.Trace.number child "op_id")

(* ---- unattributed residual ---- *)

let test_unattributed () =
  Alcotest.check close "5% unattributed" 0.05 (Spans.unattributed ~total:10. ~parts:9.5);
  Alcotest.check close "fully attributed" 0. (Spans.unattributed ~total:4. ~parts:4.);
  Alcotest.check close "parts can exceed a noisy total" (-0.25) (Spans.unattributed ~total:4. ~parts:5.);
  Alcotest.check_raises "no total" (Invalid_argument "Spans.unattributed: total must be positive")
    (fun () -> ignore (Spans.unattributed ~total:0. ~parts:1.))

let () =
  Alcotest.run "e2e"
    [
      ( "stats",
        [
          Alcotest.test_case "percentile" `Quick test_percentile;
          Alcotest.test_case "paired median" `Quick test_paired_median;
          Alcotest.test_case "tail rule" `Quick test_tail_rule;
          Alcotest.test_case "quartiles" `Quick test_quartiles;
        ] );
      ("poisson", [ Alcotest.test_case "determinism" `Quick test_poisson_determinism ]);
      ( "spans",
        [
          Alcotest.test_case "self time" `Quick test_self_time;
          Alcotest.test_case "recorder" `Quick test_recorder;
          Alcotest.test_case "jsonl" `Quick test_jsonl;
          Alcotest.test_case "unattributed" `Quick test_unattributed;
        ] );
    ]
