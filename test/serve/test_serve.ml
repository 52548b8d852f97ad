(* Serving-layer suite.

   The centrepiece is the determinism theorem the design leans on: the
   same query stream served over 1, 2 and 8 domains produces bit-identical
   outcomes and bit-identical cache hit/miss traces, because every cache,
   pool and coalescing decision is made sequentially on the coordinator
   and solves are pure functions of coordinator-chosen inputs.  Around it:
   source classification (cold / cache / pool / range), budget segments
   growing as warm solves leave new ones, LRU and pool determinism,
   the certification discipline (crippled solvers and unattainable
   guarantee targets are refused, never served), and window rotation. *)

let mica = Sensor.Mica2.default

type env = {
  topo : Sensor.Topology.t;
  cost : Sensor.Cost.t;
  samples : Sampling.Sample_set.t;
  full_mj : float;  (** full-collection cost: the budget scale *)
}

let mk_env ?(n = 24) ?(k = 4) ?(count = 12) seed =
  let rng = Rng.create seed in
  let layout = Sensor.Placement.uniform rng ~n ~width:100. ~height:100. () in
  let range = Sensor.Topology.min_connecting_range layout *. 1.15 in
  let topo = Sensor.Topology.build layout ~range in
  let cost = Sensor.Cost.of_mica2 topo mica in
  let field =
    Sampling.Field.random_gaussian rng ~n ~mean_lo:18. ~mean_hi:26. ~sigma_lo:1.
      ~sigma_hi:4.
  in
  let samples = Sampling.Sample_set.draw rng field ~k ~count in
  let full_mj =
    Prospector.Plan.expected_collection_mj topo cost
      (Prospector.Proof_exec.min_bandwidth_plan topo)
  in
  { topo; cost; samples; full_mj }

let config ?(cache = 64) ?(pool = 8) ?(batch = 8) ?(domains = 1) ?max_it () =
  {
    Serve.Server.default_config with
    cache_capacity = cache;
    pool_capacity = pool;
    batch;
    domains;
    max_lp_iterations = max_it;
  }

let server_of ?config:(c = config ()) envs =
  let t = Serve.Server.create ~config:c () in
  List.iter
    (fun e -> ignore (Serve.Server.register t e.topo e.cost e.samples))
    envs;
  t

let source = function
  | Serve.Server.Served r -> Serve.Server.source_to_string r.source
  | Serve.Server.Refused _ -> "refused"

let served = function
  | Serve.Server.Served r -> r
  | Serve.Server.Refused reason -> Alcotest.failf "refused: %s" reason

(* ------------------------------------------------------------------ *)

let test_sources_and_coalescing () =
  let e = mk_env 11 in
  let t = server_of [ e ] in
  let b = 0.5 *. e.full_mj in
  let q budget = Serve.Server.query ~network:0 ~k:4 budget in
  (* one batch: leader + coalesced follower + a distinct query on the
     same instance, which waits for the leader's segment: 0.9b lies in
     it, so it is served from the segment's affine point *)
  let out = Serve.Server.run t [| q b; q b; q (0.9 *. b) |] in
  (* a coalesced follower reports its leader's source; only the trace tag
     and the [coalesced] flag say it rode along *)
  Alcotest.(check (list string))
    "first batch sources" [ "cold"; "cold"; "range" ]
    (Array.to_list (Array.map source out));
  let r0 = served out.(0) and r1 = served out.(1) in
  Alcotest.(check bool) "leader not coalesced" false r0.coalesced;
  Alcotest.(check bool) "follower coalesced" true r1.coalesced;
  Alcotest.(check bool) "certified" true r0.certify.Lp.Certify.certified;
  Alcotest.(check (float 0.)) "follower shares the plan" r0.objective r1.objective;
  (* second call: exact repeat hits the cache; the leader's segment
     covers [0.9b, b], so a budget inside it is a range hit *)
  let out2 = Serve.Server.run t [| q b; q (0.95 *. b) |] in
  Alcotest.(check string) "exact repeat" "cache" (source out2.(0));
  Alcotest.(check string) "budget inside the range" "range" (source out2.(1));
  Alcotest.(check (float 0.)) "cache hit solves nothing" 0.
    (served out2.(0)).solve_ms;
  let s = Serve.Server.stats t in
  Alcotest.(check int) "queries" 5 s.queries;
  Alcotest.(check int) "cache hits" 1 s.cache_hits;
  Alcotest.(check int) "coalesced" 1 s.coalesced;
  Alcotest.(check int) "pool hits" 0 s.pool_hits;
  Alcotest.(check int) "range hits" 2 s.range_hits;
  Alcotest.(check int) "cold misses" 1 s.cold_misses;
  Alcotest.(check int) "solves = tasks" 3 s.solves;
  let trace = Serve.Server.trace t in
  Alcotest.(check int) "one trace entry per query" 5 (List.length trace);
  Alcotest.(check (list string))
    "trace tags"
    [ "cold"; "coalesced"; "range"; "cache"; "range" ]
    (List.map snd trace);
  (* arena accounting: single domain, every solve on slot 0 *)
  let arenas = Serve.Server.arena_stats t in
  Alcotest.(check int) "arena solves" s.solves (fst arenas.(0))

let test_range_growth () =
  let e = mk_env 12 in
  let t = server_of [ e ] in
  let b = 0.5 *. e.full_mj in
  let q budget = Serve.Server.query ~network:0 ~k:4 budget in
  let segments () =
    match Serve.Server.warm_state t ~network:0 ~k:4 with
    | Some w -> w.segments
    | None -> Alcotest.fail "no instance"
  in
  (* the cold solve at b leaves one segment, which holds b *)
  ignore (Serve.Server.run t [| q b |]);
  let lo, hi =
    match segments () with
    | [ s ] -> s
    | l -> Alcotest.failf "%d segments after one solve" (List.length l)
  in
  Alcotest.(check bool) "segment holds its anchor" true (lo <= b && b <= hi);
  (* any budget inside it is a range hit, certified at its own budget *)
  let mid = if hi < infinity then 0.5 *. (b +. hi) else 1.001 *. b in
  let out1 = Serve.Server.run t [| q mid |] in
  Alcotest.(check string) "budget inside the segment" "range" (source out1.(0));
  let r = served out1.(0) in
  Alcotest.(check bool) "range hit certified" true
    r.certify.Lp.Certify.certified;
  Alcotest.(check (float 0.)) "served at its own budget" mid r.budget;
  Alcotest.(check (list (pair (float 0.) (float 0.))))
    "a range hit leaves no segment" [ (lo, hi) ] (segments ());
  (* a budget just above it starts warm from its basis and leaves a
     second segment, which then serves that budget *)
  let above = Float.succ hi *. 1.05 in
  let out2 = Serve.Server.run t [| q above |] in
  Alcotest.(check string) "budget outside warms from the segment" "pool"
    (source out2.(0));
  Alcotest.(check int) "two segments" 2 (List.length (segments ()));
  let out3 = Serve.Server.run t [| q (Float.succ above) |] in
  Alcotest.(check string) "the new segment serves it" "range" (source out3.(0));
  let s = Serve.Server.stats t in
  Alcotest.(check int) "range hits" 2 s.range_hits

(* ------------------------------------------------------------------ *)

let same_response (a : Serve.Server.response) (b : Serve.Server.response) =
  let bits = Int64.bits_of_float in
  let plan_eq =
    let pa = (a.plan :> Prospector.Plan.t).Prospector.Plan.bandwidth
    and pb = (b.plan :> Prospector.Plan.t).Prospector.Plan.bandwidth in
    Array.length pa = Array.length pb
    && Array.for_all2 (fun (x : int) y -> x = y) pa pb
  in
  plan_eq
  && Int64.equal (bits a.objective) (bits b.objective)
  && String.equal
       (Serve.Server.source_to_string a.source)
       (Serve.Server.source_to_string b.source)
  && Bool.equal a.coalesced b.coalesced
  && Bool.equal a.certify.Lp.Certify.certified b.certify.Lp.Certify.certified
  && Int64.equal (bits a.budget) (bits b.budget)
  && (match (a.guarantee, b.guarantee) with
     | None, None -> true
     | Some ga, Some gb -> Prospector.Guarantee.equal ga gb
     | _ -> false)

let same_outcome a b =
  match (a, b) with
  | Serve.Server.Served ra, Serve.Server.Served rb -> same_response ra rb
  | Serve.Server.Refused ma, Serve.Server.Refused mb -> String.equal ma mb
  | _ -> false

let mixed_stream e1_full e2_full =
  (* repeats, perturbations, two networks, k variants, a guarantee query
     and an invalid one — enough to exercise every admission path *)
  let q ?guarantee ~network ~k budget =
    Serve.Server.query ?guarantee ~network ~k budget
  in
  let b1 = 0.5 *. e1_full and b2 = 0.4 *. e2_full in
  [|
    q ~network:0 ~k:4 b1;
    q ~network:1 ~k:4 b2;
    q ~network:0 ~k:4 b1;
    q ~network:0 ~k:3 b1;
    q ~network:0 ~k:4 (1.001 *. b1);
    q ~network:1 ~k:4 b2;
    q ~network:0 ~k:4 b1;
    q ~network:9 ~k:4 b1;
    q ~network:0 ~k:4 (1.0005 *. b1);
    q ~network:1 ~k:2 (0.8 *. b2);
    q ~network:0 ~k:4 ~guarantee:(0.9, 0.5) b1;
    q ~network:0 ~k:4 (0.999 *. b1);
    q ~network:1 ~k:4 (1.002 *. b2);
    q ~network:0 ~k:4 b1;
    q ~network:0 ~k:0 b1;
    q ~network:1 ~k:4 b2;
  |]

let run_stream ?sink ~domains () =
  let e1 = mk_env 21 and e2 = mk_env ~n:18 ~k:3 ~count:10 22 in
  let t = server_of ~config:(config ~batch:4 ~domains ()) [ e1; e2 ] in
  let queries = mixed_stream e1.full_mj e2.full_mj in
  Obs.Trace.install sink;
  let outcomes =
    Fun.protect
      ~finally:(fun () -> Obs.Trace.install None)
      (fun () -> Serve.Server.run t queries)
  in
  (outcomes, Serve.Server.trace t, Serve.Server.stats t)

let check_same_run (o1, tr1, s1) (o2, tr2, s2) =
  Alcotest.(check int) "same length" (Array.length o1) (Array.length o2);
  Array.iteri
    (fun i a ->
      Alcotest.(check bool)
        (Printf.sprintf "outcome %d identical" i)
        true
        (same_outcome a o2.(i)))
    o1;
  Alcotest.(check (list (pair string string))) "identical traces" tr1 tr2;
  let open Serve.Server in
  Alcotest.(check int) "cache_hits" s1.cache_hits s2.cache_hits;
  Alcotest.(check int) "range_hits" s1.range_hits s2.range_hits;
  Alcotest.(check int) "pool_hits" s1.pool_hits s2.pool_hits;
  Alcotest.(check int) "cold" s1.cold_misses s2.cold_misses;
  Alcotest.(check int) "coalesced" s1.coalesced s2.coalesced;
  Alcotest.(check int) "refused" s1.refused s2.refused;
  Alcotest.(check int) "solves" s1.solves s2.solves

let test_determinism_across_domains () =
  let r1 = run_stream ~domains:1 () in
  let r2 = run_stream ~domains:2 () in
  let r8 = run_stream ~domains:8 () in
  check_same_run r1 r2;
  check_same_run r1 r8;
  (* An installed trace sink is single-domain, so a traced run serves
     inline whatever [domains] asks for — and must still answer exactly
     as the untraced run does. *)
  let sink = Obs.Trace.create () in
  let r2_traced = run_stream ~sink ~domains:2 () in
  check_same_run r2 r2_traced;
  let batches =
    List.filter
      (fun e ->
        e.Obs.Trace.kind = Obs.Trace.Serve
        && String.equal e.Obs.Trace.name "serve.batch")
      (Obs.Trace.events sink)
  in
  Alcotest.(check bool) "traced run emitted serve.batch spans" true
    (batches <> []);
  List.iter
    (fun e ->
      Alcotest.(check (option (float 0.)))
        "traced batch runs on one domain" (Some 1.)
        (Obs.Trace.number e "domains"))
    batches;
  (* with >1 domain the work really fans out only when a batch has >1
     task, but the trace is the witness that the decisions didn't move *)
  let _, _, s = r8 in
  Alcotest.(check bool) "stream exercised the cache" true (s.cache_hits >= 3)

(* ------------------------------------------------------------------ *)

let test_certified_serving_property () =
  let e = mk_env ~n:16 ~k:3 ~count:8 31 in
  let budgets = [| 0.3; 0.45; 0.6 |] in
  let test =
    QCheck.Test.make ~count:10 ~name:"cache-served plans are always certified"
      QCheck.(pair small_nat (list_of_size Gen.(int_range 4 16) small_nat))
      (fun (_salt, picks) ->
        let t = server_of ~config:(config ~batch:4 ()) [ e ] in
        let queries =
          picks
          |> List.map (fun p ->
                 let b = budgets.(p mod Array.length budgets) *. e.full_mj in
                 let k = 2 + (p mod 2) in
                 let guarantee =
                   if p mod 5 = 0 then Some (0.95, 0.5) else None
                 in
                 Serve.Server.query ?guarantee ~network:0 ~k b)
          |> Array.of_list
        in
        let outcomes = Serve.Server.run t queries in
        Array.for_all2
          (fun (q : Serve.Server.query) o ->
            match o with
            | Serve.Server.Refused _ -> true
            | Serve.Server.Served r ->
                (* the served certification is the one computed at exactly
                   the budget the response claims, which is the query's *)
                r.certify.Lp.Certify.certified
                && Int64.equal
                     (Int64.bits_of_float r.budget)
                     (Int64.bits_of_float q.budget)
                && (match (q.guarantee, r.guarantee) with
                   | None, None -> true
                   | Some (eps, delta), Some g ->
                       Prospector.Guarantee.meets g ~eps ~delta
                   | _ -> false))
          queries outcomes)
  in
  QCheck_alcotest.to_alcotest test

(* ------------------------------------------------------------------ *)

let test_plan_cache_lru () =
  let c = Serve.Plan_cache.create ~capacity:2 in
  Serve.Plan_cache.add c ~key:"a" 1;
  Serve.Plan_cache.add c ~key:"b" 2;
  Alcotest.(check (option int)) "a cached" (Some 1)
    (Serve.Plan_cache.find c ~key:"a");
  (* b is now least-recently-used; inserting c must evict b, not a *)
  Serve.Plan_cache.add c ~key:"c" 3;
  Alcotest.(check (option int)) "b evicted" None
    (Serve.Plan_cache.find c ~key:"b");
  Alcotest.(check (option int)) "a survives" (Some 1)
    (Serve.Plan_cache.find c ~key:"a");
  Alcotest.(check (option int)) "c cached" (Some 3)
    (Serve.Plan_cache.find c ~key:"c");
  Alcotest.(check int) "one eviction" 1 (Serve.Plan_cache.evictions c);
  Alcotest.(check int) "size" 2 (Serve.Plan_cache.size c);
  (* capacity 0 disables without errors *)
  let z = Serve.Plan_cache.create ~capacity:0 in
  Serve.Plan_cache.add z ~key:"a" 1;
  Alcotest.(check (option int)) "disabled cache misses" None
    (Serve.Plan_cache.find z ~key:"a")

let test_pool_nearest () =
  let e = mk_env 41 in
  let solve budget =
    let r =
      Prospector.Lp_lf.plan e.topo e.cost e.samples ~budget ~k:4
    in
    Option.get r.Prospector.Lp_lf.basis
  in
  let b_lo = solve (0.4 *. e.full_mj) and b_hi = solve (0.7 *. e.full_mj) in
  let module S = Serve.Segment_set in
  let p = S.create ~capacity:2 in
  (* ladder bases are zero-width intervals *)
  S.insert p ~lo:10. ~hi:10. b_lo;
  S.insert p ~lo:20. ~hi:20. b_hi;
  let is b = function S.Containing b' | S.Nearest b' -> b' == b | S.Empty -> false in
  Alcotest.(check bool) "nearest low" true (is b_lo (S.lookup p ~budget:12.));
  Alcotest.(check bool) "nearest high" true (is b_hi (S.lookup p ~budget:19.));
  Alcotest.(check bool) "tie goes low" true (is b_lo (S.lookup p ~budget:15.));
  Alcotest.(check bool) "a point contains its budget" true
    (match S.lookup p ~budget:20. with S.Containing b -> b == b_hi | _ -> false);
  (* an equal interval replaces the older entry *)
  S.insert p ~lo:20. ~hi:20. b_lo;
  Alcotest.(check int) "newest wins" 2 (S.size p);
  Alcotest.(check bool) "replaced" true (is b_lo (S.lookup p ~budget:20.));
  (* a full set evicts its least recently used entry, whatever its
     budget: 20 was looked up last, so 10 goes *)
  S.insert p ~lo:30. ~hi:30. b_hi;
  Alcotest.(check int) "capacity holds" 2 (S.size p);
  Alcotest.(check (list (pair (float 0.) (float 0.))))
    "least recently used evicted"
    [ (20., 20.); (30., 30.) ]
    (S.bounds p);
  (* an interval swallows the entries inside it *)
  S.insert p ~lo:15. ~hi:35. b_lo;
  Alcotest.(check (list (pair (float 0.) (float 0.)))) "inner entries dropped"
    [ (15., 35.) ] (S.bounds p);
  Alcotest.(check bool) "interval contains" true
    (match S.lookup p ~budget:22. with S.Containing b -> b == b_lo | _ -> false);
  Alcotest.(check bool) "interval nearest" true
    (match S.lookup p ~budget:40. with S.Nearest b -> b == b_lo | _ -> false);
  (* capacity 0 disables the set *)
  let z = S.create ~capacity:0 in
  S.insert z ~lo:10. ~hi:10. b_lo;
  Alcotest.(check bool) "disabled set misses" true (S.lookup z ~budget:10. = S.Empty)

(* ------------------------------------------------------------------ *)

let test_crippled_solver_refused () =
  let e = mk_env 51 in
  let t = server_of ~config:(config ~max_it:0 ()) [ e ] in
  let b = 0.5 *. e.full_mj in
  let q = Serve.Server.query ~network:0 ~k:4 b in
  let out = Serve.Server.run t [| q; q |] in
  Array.iter
    (fun o ->
      match o with
      | Serve.Server.Refused reason ->
          Alcotest.(check bool) "reason names certification" true
            (String.length reason > 0)
      | Serve.Server.Served _ ->
          Alcotest.fail "crippled solver must never be served")
    out;
  let s = Serve.Server.stats t in
  Alcotest.(check int) "both refused" 2 s.refused;
  Alcotest.(check int) "nothing cached or coalesced-served" 0
    (s.cache_hits + s.coalesced);
  (* refusals must not populate the cache: the retry still solves *)
  let out2 = Serve.Server.run t [| q |] in
  Alcotest.(check string) "retry is refused again" "refused" (source out2.(0))

(* An expired wall-clock deadline stops the revised solver and no other
   solver runs after it, so every query is refused.  At this budget the
   crash start is not optimal (the budget row is violated there), so the
   solve still has dual pivots to make when the deadline stops it. *)
let test_expired_deadline_refused () =
  let e = mk_env 51 in
  let b = 0.5 *. e.full_mj in
  let healthy = Prospector.Lp_lf.plan e.topo e.cost e.samples ~budget:b ~k:4 in
  (match healthy.Prospector.Lp_lf.lp_stats with
  | Some st ->
      Alcotest.(check bool) "the crash start needs dual pivots" true
        (st.Lp.Revised.dual_iterations > 0)
  | None -> Alcotest.fail "the healthy solve should be certified");
  let config = { (config ()) with lp_deadline = Some 0. } in
  let t = server_of ~config [ e ] in
  let q = Serve.Server.query ~network:0 ~k:4 b in
  let out = Serve.Server.run t [| q; q |] in
  let out2 = Serve.Server.run t [| q |] in
  Array.iter
    (fun o -> Alcotest.(check string) "refused" "refused" (source o))
    (Array.append out out2);
  let s = Serve.Server.stats t in
  Alcotest.(check int) "every query refused" 3 s.refused;
  Alcotest.(check int) "no cache hits" 0 s.cache_hits;
  Alcotest.(check int) "no coalesced serves" 0 s.coalesced

let test_guarantee_paths () =
  let e = mk_env ~n:20 ~count:16 61 in
  let t = server_of [ e ] in
  let b = 0.7 *. e.full_mj in
  let loose = Serve.Server.query ~guarantee:(0.9, 0.5) ~network:0 ~k:4 b in
  let out = Serve.Server.run t [| loose |] in
  let r = served out.(0) in
  (match r.guarantee with
  | Some g ->
      Alcotest.(check bool) "meets the loose target" true
        (Prospector.Guarantee.meets g ~eps:0.9 ~delta:0.5)
  | None -> Alcotest.fail "guarantee requested but absent");
  let tight =
    Serve.Server.query ~guarantee:(1e-6, 1e-9) ~network:0 ~k:4 (0.1 *. b)
  in
  (match (Serve.Server.run t [| tight |]).(0) with
  | Serve.Server.Refused reason ->
      Alcotest.(check bool) "names the guarantee" true
        (String.length reason > 0)
  | Serve.Server.Served _ ->
      Alcotest.fail "unattainable target must be refused")

let test_invalid_queries () =
  let e = mk_env 71 in
  let t = server_of [ e ] in
  let b = 0.5 *. e.full_mj in
  let cases =
    [
      ("unknown network", Serve.Server.query ~network:7 ~k:4 b);
      ("k too small", Serve.Server.query ~network:0 ~k:0 b);
      ("k too large", Serve.Server.query ~network:0 ~k:1000 b);
      ("negative budget", Serve.Server.query ~network:0 ~k:4 (-1.));
      ("nan budget", Serve.Server.query ~network:0 ~k:4 Float.nan);
      ( "bad guarantee",
        Serve.Server.query ~guarantee:(0.1, 1.5) ~network:0 ~k:4 b );
    ]
  in
  List.iter
    (fun (name, q) ->
      match (Serve.Server.run t [| q |]).(0) with
      | Serve.Server.Refused _ -> ()
      | Serve.Server.Served _ -> Alcotest.failf "%s must be refused" name)
    cases;
  Alcotest.(check int) "all refused" (List.length cases)
    (Serve.Server.stats t).refused

let test_window_rotation () =
  let e = mk_env 81 in
  let t = server_of [ e ] in
  let b = 0.5 *. e.full_mj in
  let q = Serve.Server.query ~network:0 ~k:4 b in
  ignore (Serve.Server.run t [| q |]);
  Alcotest.(check string) "repeat hits" "cache"
    (source (Serve.Server.run t [| q |]).(0));
  (* a fresh window invalidates exact plans and the instance's bases: its
     LP has other rows and columns, so the first solve on it is cold *)
  let rng = Rng.create 82 in
  let field =
    Sampling.Field.random_gaussian rng ~n:24 ~mean_lo:18. ~mean_hi:26.
      ~sigma_lo:1. ~sigma_hi:4.
  in
  Serve.Server.update_window t ~network:0
    (Sampling.Sample_set.draw rng field ~k:4 ~count:12);
  let out = Serve.Server.run t [| q |] in
  Alcotest.(check string) "stale plan not re-served, no stale basis" "cold"
    (source out.(0));
  Alcotest.(check bool) "re-certified on the new window" true
    (served out.(0)).certify.Lp.Certify.certified

(* A guarantee ladder that escalated solved its chosen plan's LP at the
   rung's budget, [budget * 1.5^e], so that is the budget its basis is
   pooled under: a later guarantee query starts from the basis solved
   nearest to its own budget. *)
let test_ladder_deposit_budget () =
  let e = mk_env ~n:20 ~count:16 61 in
  (* the first (target, budget) whose ladder escalates and is met *)
  let inst = Prospector.Lp_lf.instance e.topo e.cost e.samples ~k:4 in
  let target, b, fresh =
    match
      List.find_map
        (fun (target, frac) ->
          let b = frac *. e.full_mj in
          let r = Prospector.Lp_lf.solve ~guarantee:target inst ~budget:b in
          let met =
            match r.guarantee with
            | Some g -> Prospector.Guarantee.meets g ~eps:(fst target) ~delta:(snd target)
            | None -> false
          in
          if met && r.lp_budget > b then Some (target, b, r) else None)
        [ ((0.5, 0.3), 0.2); ((0.6, 0.3), 0.1); ((0.8, 0.5), 0.05); ((0.9, 0.5), 0.02) ]
    with
    | Some found -> found
    | None -> Alcotest.fail "no met target needed an escalation"
  in
  let rungs = Float.log (fresh.lp_budget /. b) /. Float.log 1.5 in
  Alcotest.(check bool)
    (Printf.sprintf "the ladder escalated (%.2f rungs)" rungs)
    true (rungs >= 0.99);
  let t = server_of [ e ] in
  let out =
    Serve.Server.run t
      [| Serve.Server.query ~guarantee:target ~network:0 ~k:4 b |]
  in
  Alcotest.(check bool) "served" true
    (match out.(0) with Serve.Server.Served _ -> true | _ -> false);
  match Serve.Server.warm_state t ~network:0 ~k:4 with
  | Some w ->
      Alcotest.(check (list (float 0.)))
        "pooled at the rung's budget" [ fresh.lp_budget ] w.ladder_budgets
  | None -> Alcotest.fail "no instance"

(* A source tag is a claim about the solve: every task tagged "range"
   must have been served by a certified affine point (an [lp.affine] span
   with [certified = true]) and run no simplex (no [lp.revised] span),
   every "pool" one the warm path (its first [lp.revised] span says
   [warm = true]) and every "cold" one the cold path.  Queries go one per
   call so that a call's spans are its query's; the stream walks cold,
   cache, pool and range starts, guarantee ladders starting cold and
   from the ladder pool, and a window refresh. *)
let honest_sources ?config ~expected ?(refreshed = expected) () =
  let e = mk_env ~n:20 ~count:16 91 in
  let t = server_of ?config [ e ] in
  let b = 0.5 *. e.full_mj in
  let q ?guarantee f = Serve.Server.query ?guarantee ~network:0 ~k:4 (f *. b) in
  let sink = Obs.Trace.create () in
  let serve_one query =
    Obs.Trace.clear sink;
    Serve.Server.clear_trace t;
    Obs.Trace.install (Some sink);
    let out =
      Fun.protect
        ~finally:(fun () -> Obs.Trace.install None)
        (fun () -> Serve.Server.run t [| query |])
    in
    let tag =
      match Serve.Server.trace t with
      | [ (_, tag) ] -> tag
      | l -> Alcotest.failf "%d trace entries for one query" (List.length l)
    in
    let first_start =
      List.find_map
        (fun (ev : Obs.Trace.event) ->
          if String.equal ev.name "lp.revised" then
            Some (Obs.Trace.find_attr ev "start")
          else None)
        (Obs.Trace.events sink)
    in
    let affine =
      List.filter_map
        (fun (ev : Obs.Trace.event) ->
          if String.equal ev.name "lp.affine" then
            Some (Obs.Trace.find_attr ev "certified")
          else None)
        (Obs.Trace.events sink)
    in
    (* A cold-tagged solve had no token: it starts from the LP's crash
       basis (or the all-slack one), never warm. *)
    (match (tag, affine, first_start) with
    | "range", [ Some (Obs.Trace.Bool true) ], None
    | "pool", [], Some (Some (Obs.Trace.Str "warm"))
    | "cache", [], None ->
        ()
    | "cold", [], Some (Some (Obs.Trace.Str start))
      when not (String.equal start "warm") ->
        ()
    | "range", _, Some _ -> Alcotest.failf "tagged range but a simplex ran"
    | _, _ :: _, _ -> Alcotest.failf "tagged %s but an affine point was tried" tag
    | _, _, Some (Some (Obs.Trace.Str start)) ->
        Alcotest.failf "tagged %s but the solve started %s" tag start
    | _ -> Alcotest.failf "tagged %s: no span to match" tag);
    (match out.(0) with
    | Serve.Server.Served r -> (
        match (query.Serve.Server.guarantee, r.guarantee) with
        | Some (eps, delta), Some g ->
            Alcotest.(check bool) "guarantee met" true
              (Prospector.Guarantee.meets g ~eps ~delta)
        | _ -> ())
    | Serve.Server.Refused reason -> Alcotest.failf "refused: %s" reason);
    tag
  in
  let g = (0.9, 0.5) in
  let stream () =
    List.map serve_one
      [
        q 1.;
        q 1.;
        q 1.001;
        q 1.0005;
        q 0.7;
        q 0.25;
        q 2.;
        q ~guarantee:g 1.;
        q ~guarantee:g 1.1;
        q ~guarantee:(0.8, 0.5) 0.9;
      ]
  in
  Alcotest.(check (list string)) "first window" expected (stream ());
  let rng = Rng.create 92 in
  let field =
    Sampling.Field.random_gaussian rng ~n:20 ~mean_lo:18. ~mean_hi:26.
      ~sigma_lo:1. ~sigma_hi:4.
  in
  Serve.Server.update_window t ~network:0
    (Sampling.Sample_set.draw rng field ~k:4 ~count:16);
  Alcotest.(check (list string)) "refreshed window" refreshed (stream ())

let test_honest_sources () =
  honest_sources
    ~expected:
      [ "cold"; "cache"; "range"; "range"; "range"; "pool"; "pool"; "cold";
        "pool"; "pool" ]
    ~refreshed:
      [ "cold"; "cache"; "range"; "range"; "pool"; "pool"; "pool"; "cold";
        "pool"; "pool" ]
    ()

(* The warm state does not depend on the plan cache: with the cache off
   a repeat is a range hit instead of a cache hit, and everything else
   starts where it did.  With the pool off the server keeps nothing and
   every query is cold. *)
let test_honest_sources_uncached () =
  honest_sources ~config:(config ~cache:0 ())
    ~expected:
      [ "cold"; "range"; "range"; "range"; "range"; "pool"; "pool"; "cold";
        "pool"; "pool" ]
    ~refreshed:
      [ "cold"; "range"; "range"; "range"; "pool"; "pool"; "pool"; "cold";
        "pool"; "pool" ]
    ();
  honest_sources ~config:(config ~cache:0 ~pool:0 ())
    ~expected:(List.init 10 (fun _ -> "cold"))
    ()

(* One batch holding several distinct-budget queries per instance on
   freshly refreshed windows, guarantee queries included: a query that
   would start cold waits for the first solve on its instance, so the
   batch makes exactly one cold solve per instance and planning window,
   and the answers do not depend on the domain count (1, 2 or 8, all
   untraced). *)
let test_deferral_determinism () =
  let q ?guarantee ~network ~k budget =
    Serve.Server.query ?guarantee ~network ~k budget
  in
  let run domains =
    let e1 = mk_env 101 and e2 = mk_env ~n:18 ~k:3 ~count:10 102 in
    let t = server_of ~config:(config ~batch:16 ~domains ()) [ e1; e2 ] in
    let b1 = 0.5 *. e1.full_mj and b2 = 0.4 *. e2.full_mj in
    ignore (Serve.Server.run t [| q ~network:0 ~k:4 b1; q ~network:1 ~k:3 b2 |]);
    let rng = Rng.create 103 in
    List.iter
      (fun (network, n, k, count) ->
        let field =
          Sampling.Field.random_gaussian rng ~n ~mean_lo:18. ~mean_hi:26.
            ~sigma_lo:1. ~sigma_hi:4.
        in
        Serve.Server.update_window t ~network
          (Sampling.Sample_set.draw rng field ~k ~count))
      [ (0, 24, 4, 12); (1, 18, 3, 10) ];
    Serve.Server.clear_trace t;
    let g = (0.9, 0.5) in
    let batch =
      [|
        q ~network:0 ~k:4 b1;
        q ~network:1 ~k:3 b2;
        q ~network:0 ~k:4 (0.8 *. b1);
        q ~network:0 ~k:4 ~guarantee:g b1;
        q ~network:0 ~k:4 (1.2 *. b1);
        q ~network:1 ~k:3 (0.9 *. b2);
        q ~network:0 ~k:3 b1;
        q ~network:0 ~k:4 (0.8 *. b1);
        q ~network:0 ~k:4 ~guarantee:g (1.1 *. b1);
        q ~network:0 ~k:3 (1.1 *. b1);
        q ~network:1 ~k:3 (1.3 *. b2);
        q ~network:0 ~k:4 (0.6 *. b1);
      |]
    in
    let outcomes = Serve.Server.run t batch in
    (batch, (outcomes, Serve.Server.trace t, Serve.Server.stats t))
  in
  let batch, ((_, trace, _) as r1) = run 1 in
  check_same_run r1 (snd (run 2));
  check_same_run r1 (snd (run 8));
  let colds = Hashtbl.create 8 in
  List.iteri
    (fun i (_, tag) ->
      if String.equal tag "cold" then begin
        let (qi : Serve.Server.query) = batch.(i) in
        let slot =
          Printf.sprintf "net %d k %d%s" qi.network qi.k
            (if Option.is_some qi.guarantee then " ladder" else "")
        in
        Hashtbl.replace colds slot
          (1 + Option.value (Hashtbl.find_opt colds slot) ~default:0)
      end)
    trace;
  List.iter
    (fun slot ->
      Alcotest.(check (option int))
        (slot ^ ": one cold solve") (Some 1)
        (Hashtbl.find_opt colds slot))
    [ "net 0 k 4"; "net 1 k 3"; "net 0 k 3"; "net 0 k 4 ladder" ];
  Alcotest.(check int) "no other cold solve" 4 (Hashtbl.length colds);
  Alcotest.(check (list string))
    "tags"
    [ "cold"; "cold"; "pool"; "cold"; "pool"; "range"; "cold"; "coalesced";
      "pool"; "pool"; "range"; "pool" ]
    (List.map snd trace)

(* A range hit leaves no warm state, so it makes no other query on its
   instance wait: a batch holding a budget inside the instance's segment
   and one outside it runs in one pass. *)
let test_range_hit_defers_nothing () =
  let e = mk_env 12 in
  let t = server_of [ e ] in
  let b = 0.5 *. e.full_mj in
  let q budget = Serve.Server.query ~network:0 ~k:4 budget in
  ignore (Serve.Server.run t [| q b |]);
  let lo, hi =
    match Serve.Server.warm_state t ~network:0 ~k:4 with
    | Some { segments = [ s ]; _ } -> s
    | _ -> Alcotest.fail "expected one segment"
  in
  let inside = 0.5 *. (lo +. b) in
  let outside = if lo > 0. then 0.9 *. lo else 1.1 *. hi in
  if not (Float.is_finite outside) then Alcotest.fail "segment covers every budget";
  let sink = Obs.Trace.create () in
  Obs.Trace.install (Some sink);
  let out =
    Fun.protect
      ~finally:(fun () -> Obs.Trace.install None)
      (fun () -> Serve.Server.run t [| q inside; q outside |])
  in
  Alcotest.(check (list string)) "sources" [ "range"; "pool" ]
    (Array.to_list (Array.map source out));
  let passes =
    List.filter_map
      (fun (ev : Obs.Trace.event) ->
        if String.equal ev.name "serve.batch" then Obs.Trace.find_attr ev "passes"
        else None)
      (Obs.Trace.events sink)
  in
  Alcotest.(check bool) "one pass" true (passes = [ Obs.Trace.Int 1 ])

(* Guarantee targets are part of the exact identity bit for bit: targets
   one ulp apart in ε alone or δ alone, and "no target" against any
   target, must never share a plan-cache or coalescing key. *)
let test_guarantee_keys () =
  let key guarantee =
    Serve.Fingerprint.exact_key
      (Serve.Fingerprint.make ~network:0 ~window:0 ~k:4 ~budget:10. ~guarantee
         ~topo_hash:7L ~samples:12)
  in
  let targets =
    [
      ("none", None);
      ("(0.1, 0.05)", Some (0.1, 0.05));
      ("eps + 1 ulp", Some (Float.succ 0.1, 0.05));
      ("delta + 1 ulp", Some (0.1, Float.succ 0.05));
      ("both + 1 ulp", Some (Float.succ 0.1, Float.succ 0.05));
      ("swapped", Some (0.05, 0.1));
      ("(0.5, 0.5)", Some (0.5, 0.5));
      ("min subnormal", Some (Float.succ 0., 0.5));
    ]
  in
  List.iteri
    (fun i (na, ga) ->
      Alcotest.(check string)
        (Printf.sprintf "%s keys equal to itself" na)
        (key ga) (key ga);
      List.iteri
        (fun j (nb, gb) ->
          if i < j then
            Alcotest.(check bool)
              (Printf.sprintf "%s vs %s keys differ" na nb)
              false
              (String.equal (key ga) (key gb)))
        targets)
    targets

(* ------------------------------------------------------------------ *)
(* The seed-20060403 serving workload                                  *)

(* Three tenants (n = 60, k = 6, 16-sample windows), each with a budget
   ladder around 0.55x its minimum-bandwidth collection cost.  Generation
   [g] holds ten fresh budgets per tenant, interleaved across tenants so
   every admission batch is multi-tenant.  The hit-traffic stream pairs
   each fresh generation-2 budget with two exact repeats (one from each
   earlier generation) and an identical in-flight duplicate that
   coalesces onto the fresh solve: three solve-free serves per solve. *)
type workload = {
  nets : (Sensor.Topology.t * Sensor.Cost.t * Sampling.Sample_set.t) list;
  gen0 : Serve.Server.query array;
  gen1 : Serve.Server.query array;
  hit_stream : Serve.Server.query array;
}

let seeded_workload () =
  let n = 60 and k = 6 and q_per_tenant = 10 in
  let rng = Rng.create (20060403 * 7919) in
  let tenant () =
    let layout = Sensor.Placement.uniform rng ~n ~width:200. ~height:200. () in
    let range = Sensor.Topology.min_connecting_range layout *. 1.2 in
    let topo = Sensor.Topology.build layout ~range in
    let cost = Sensor.Cost.of_mica2 topo mica in
    let field =
      Sampling.Field.random_gaussian rng ~n ~mean_lo:20. ~mean_hi:30.
        ~sigma_lo:1. ~sigma_hi:4.
    in
    let samples = Sampling.Sample_set.draw rng field ~k ~count:16 in
    let base =
      0.55
      *. Prospector.Plan.expected_collection_mj topo cost
           (Prospector.Proof_exec.min_bandwidth_plan topo)
    in
    ((topo, cost, samples), base)
  in
  let tenants = List.init 3 (fun _ -> tenant ()) in
  let generation g =
    Array.of_list
      (List.concat
         (List.init q_per_tenant (fun i ->
              List.mapi
                (fun network (_, base) ->
                  let step = ((g * q_per_tenant) + i) * 2 in
                  Serve.Server.query ~network ~k
                    (base *. (1. +. (0.001 *. float_of_int step))))
                tenants)))
  in
  let gen0 = generation 0 and gen1 = generation 1 and gen2 = generation 2 in
  let hit_stream =
    Array.concat
      (List.init (Array.length gen2) (fun i ->
           [| gen0.(i); gen1.(i); gen2.(i); gen2.(i) |]))
  in
  { nets = List.map fst tenants; gen0; gen1; hit_stream }

let workload_server w ~cache ~pool =
  let t = Serve.Server.create ~config:(config ~cache ~pool ~batch:16 ()) () in
  List.iter
    (fun (topo, cost, samples) ->
      ignore (Serve.Server.register t topo cost samples))
    w.nets;
  t

(* Every query of a phase must be served, from one of the allowed
   sources. *)
let expect_sources phase allowed outcomes =
  Array.iteri
    (fun i o ->
      let r = served o in
      if not (allowed r.Serve.Server.source) then
        Alcotest.failf "%s query %d: served from %s" phase i
          (Serve.Server.source_to_string r.Serve.Server.source))
    outcomes

let any_source _ = true

(* The replayed phase is all exact cache hits, the next generation is all
   warm (pooled or in-range), nothing is refused, and the counters are
   exact: the stream is seeded, so a count that moves is a behaviour
   change in admission, caching or pooling. *)
let test_seeded_workload_counters () =
  let w = seeded_workload () in
  let t = workload_server w ~cache:256 ~pool:8 in
  let run phase allowed queries =
    expect_sources phase allowed (Serve.Server.run t queries)
  in
  run "prime" any_source w.gen0;
  run "replayed"
    (function Serve.Server.Cache_hit -> true | _ -> false)
    w.gen0;
  run "pooled"
    (function Serve.Server.Pool_warm | Serve.Server.Range_hit -> true | _ -> false)
    w.gen1;
  run "hit traffic" any_source w.hit_stream;
  let s = Serve.Server.stats t in
  let check name expected actual = Alcotest.(check int) name expected actual in
  check "cache_hits" 90 s.cache_hits;
  check "cache_misses" 90 (s.range_hits + s.pool_hits + s.cold_misses);
  (* one cold solve per tenant: the rest of its first batch waits for
     that solve's segment; the budget ladder is 0.1% steps, so almost
     every later budget lies in a segment an earlier solve left *)
  check "range_hits" 84 s.range_hits;
  check "pool_hits" 3 s.pool_hits;
  check "cold_misses" 3 s.cold_misses;
  check "coalesced" 30 s.coalesced;
  check "evictions" 0 s.evictions;
  check "refused" 0 s.refused;
  List.iteri
    (fun network _ ->
      match Serve.Server.warm_state t ~network ~k:6 with
      | Some w ->
          Alcotest.(check bool) "segments within pool_capacity" true
            (List.length w.segments <= 8)
      | None -> Alcotest.fail "tenant instance missing")
    w.nets

(* Hit traffic must be served at least 5x faster per query than the same
   number of cold solves.  Cold passes (no cache, no pool) alternate with
   hit-traffic passes (on a server primed with the two earlier
   generations), and the best of five of each is compared, so a slow
   phase of the host hits both sides. *)
let test_hit_traffic_speedup () =
  let w = seeded_workload () in
  let ms_per_query t queries =
    let t0 = Obs.Trace.now () in
    let out = Serve.Server.run t queries in
    let ms = 1000. *. (Obs.Trace.now () -. t0) in
    expect_sources "timed" any_source out;
    ms /. float_of_int (Array.length queries)
  in
  let cold () = ms_per_query (workload_server w ~cache:0 ~pool:0) w.gen0 in
  let hit () =
    let t = workload_server w ~cache:256 ~pool:8 in
    ignore (Serve.Server.run t w.gen0);
    ignore (Serve.Server.run t w.gen1);
    ms_per_query t w.hit_stream
  in
  let best_cold = ref infinity and best_hit = ref infinity in
  for _ = 1 to 5 do
    best_cold := Float.min !best_cold (cold ());
    best_hit := Float.min !best_hit (hit ())
  done;
  let speedup = !best_cold /. !best_hit in
  Alcotest.(check bool)
    (Printf.sprintf "hit traffic %.1fx faster than cold (need >= 5x)" speedup)
    true (speedup >= 5.)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "serve"
    [
      ( "serving",
        [
          Alcotest.test_case "sources and coalescing" `Quick
            test_sources_and_coalescing;
          Alcotest.test_case "budget-range growth" `Quick test_range_growth;
          Alcotest.test_case "crippled solver refused" `Quick
            test_crippled_solver_refused;
          Alcotest.test_case "expired deadline refused" `Quick
            test_expired_deadline_refused;
          Alcotest.test_case "guarantee met and refused" `Quick
            test_guarantee_paths;
          Alcotest.test_case "invalid queries refused" `Quick
            test_invalid_queries;
          Alcotest.test_case "window rotation" `Quick test_window_rotation;
          Alcotest.test_case "warm tags ran warm" `Quick test_honest_sources;
          Alcotest.test_case "ladder basis pooled at its rung's budget" `Quick
            test_ladder_deposit_budget;
          Alcotest.test_case "warm tags without a cache" `Quick
            test_honest_sources_uncached;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "identical streams across domain counts" `Quick
            test_determinism_across_domains;
          test_certified_serving_property ();
          Alcotest.test_case "seeded workload counters" `Quick
            test_seeded_workload_counters;
          Alcotest.test_case "cold solves deferred within a batch" `Quick
            test_deferral_determinism;
          Alcotest.test_case "range hits defer nothing" `Quick
            test_range_hit_defers_nothing;
        ] );
      ( "performance",
        [
          Alcotest.test_case "hit traffic at least 5x cold" `Quick
            test_hit_traffic_speedup;
        ] );
      ( "structures",
        [
          Alcotest.test_case "plan-cache LRU" `Quick test_plan_cache_lru;
          Alcotest.test_case "pool nearest lookup" `Quick test_pool_nearest;
          Alcotest.test_case "guarantee targets keyed exactly" `Quick
            test_guarantee_keys;
        ] );
    ]
