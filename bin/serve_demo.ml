(* Serving-layer demo: two tenants, one server, every serving regime.

     dune exec bin/serve_demo.exe        (or: make serve-demo)

   Registers two sensor networks, then serves a short query stream that
   walks through each source the server distinguishes: a cold solve, an
   in-flight coalesced duplicate, an exact cache hit, a pooled warm start
   at a perturbed budget, a certified (eps, delta) guarantee query, a
   refused, unattainably tight one, and a budget inside a segment an
   earlier solve left, served from its affine point with no simplex run
   (checked on the call's trace: a certified [lp.affine] span and no
   [lp.revised] one).  Finishes with the server's counters
   and the per-query trace.  Each query is labelled with the regime it is
   meant to show; the demo exits 1 when an answer does not match its
   label, so `dune runtest` runs it as a check. *)

let () =
  let rng = Rng.create 2006 in
  let mica = Sensor.Mica2.default in
  let mk_tenant n =
    let layout = Sensor.Placement.uniform rng ~n ~width:150. ~height:150. () in
    let range = Sensor.Topology.min_connecting_range layout *. 1.2 in
    let topo = Sensor.Topology.build layout ~range in
    let cost = Sensor.Cost.of_mica2 topo mica in
    let field =
      Sampling.Field.random_gaussian rng ~n ~mean_lo:18. ~mean_hi:26.
        ~sigma_lo:1. ~sigma_hi:4.
    in
    let samples = Sampling.Sample_set.draw rng field ~k:5 ~count:20 in
    let full =
      Prospector.Plan.expected_collection_mj topo cost
        (Prospector.Proof_exec.min_bandwidth_plan topo)
    in
    (topo, cost, samples, full)
  in
  let server = Serve.Server.create () in
  let budgets =
    List.map
      (fun (topo, cost, samples, full) ->
        let id = Serve.Server.register server topo cost samples in
        Format.printf "tenant %d: %a@." id Sensor.Topology.pp topo;
        0.5 *. full)
      [ mk_tenant 50; mk_tenant 30 ]
  in
  let b0 = List.nth budgets 0 and b1 = List.nth budgets 1 in
  let q ?guarantee ~network budget =
    Serve.Server.query ?guarantee ~network ~k:5 budget
  in
  (* two calls: the second one's repeats can hit what the first cached *)
  let first_call =
    [|
      (q ~network:0 b0, "cold");
      (q ~network:0 b0, "coalesced" (* onto the previous one *));
      (q ~network:1 b1, "cold" (* other tenant *));
    |]
  in
  let second_call =
    [|
      (q ~network:0 b0, "cache" (* exact repeat *));
      (q ~network:0 (1.02 *. b0), "pool" (* warm from tenant 0's basis *));
      (q ~network:1 ~guarantee:(0.8, 0.1) b1, "guarantee met");
      (q ~network:1 ~guarantee:(0.05, 1e-6) b1, "refused" (* unattainable *));
    |]
  in
  (* The regime an answer shows, in the labels' terms. *)
  let regime (query : Serve.Server.query) = function
    | Serve.Server.Refused _ -> "refused"
    | Serve.Server.Served r when r.coalesced -> "coalesced"
    | Serve.Server.Served r -> (
        match (query.guarantee, r.guarantee) with
        | Some (eps, delta), Some g ->
            if Prospector.Guarantee.meets g ~eps ~delta then "guarantee met"
            else "guarantee missed"
        | Some _, None -> "guarantee missing"
        | None, _ -> Serve.Server.source_to_string r.source)
  in
  let mismatches = ref 0 in
  let serve offset stream =
    let outcomes = Serve.Server.run server (Array.map fst stream) in
    Array.iteri
      (fun i o ->
        let query, label = stream.(i) in
        let got = regime query o in
        let verdict =
          if String.equal got label then "ok"
          else begin
            incr mismatches;
            Printf.sprintf "MISMATCH: expected %s, got %s" label got
          end
        in
        match o with
        | Serve.Server.Served r ->
            Format.printf
              "q%d net=%d budget=%7.1f mJ -> %-5s%s objective %.2f, %.2f ms%s [%s]@."
              (offset + i) query.network query.budget
              (Serve.Server.source_to_string r.source)
              (if r.coalesced then " (coalesced)" else "")
              r.objective r.solve_ms
              (match r.guarantee with
              | Some g ->
                  Printf.sprintf ", accuracy >= %.3f w.p. %.2f"
                    g.Prospector.Guarantee.certified_lower
                    (1. -. g.Prospector.Guarantee.delta)
              | None -> "")
              verdict
        | Serve.Server.Refused reason ->
            Format.printf "q%d REFUSED: %s [%s]@." (offset + i) reason verdict)
      outcomes
  in
  let third_call =
    [| (q ~network:0 (1.0199 *. b0), "range" (* inside q4's segment *)) |]
  in
  serve 0 first_call;
  serve (Array.length first_call) second_call;
  let sink = Obs.Trace.create () in
  Obs.Trace.install (Some sink);
  Fun.protect
    ~finally:(fun () -> Obs.Trace.install None)
    (fun () -> serve (Array.length first_call + Array.length second_call) third_call);
  let spans name = List.filter (fun (e : Obs.Trace.event) -> String.equal e.name name) (Obs.Trace.events sink) in
  let simplex_runs = List.length (spans "lp.revised") in
  let certified_affine =
    List.length
      (List.filter
         (fun e ->
           match Obs.Trace.find_attr e "certified" with
           | Some (Obs.Trace.Bool b) -> b
           | _ -> false)
         (spans "lp.affine"))
  in
  Format.printf "range answer: %d simplex run(s), %d certified affine point(s)@."
    simplex_runs certified_affine;
  if simplex_runs <> 0 || certified_affine <> 1 then begin
    incr mismatches;
    Format.printf "MISMATCH: a range answer must run no simplex@."
  end;
  let s = Serve.Server.stats server in
  Format.printf
    "@.stats: %d queries in %d batches | cache %d, range %d, pool %d, cold %d, \
     coalesced %d, refused %d | %d solves@."
    s.queries s.batches s.cache_hits s.range_hits s.pool_hits s.cold_misses
    s.coalesced
    s.refused s.solves;
  Format.printf "trace:@.";
  List.iter
    (fun (key, tag) -> Format.printf "  %-9s %s@." tag key)
    (Serve.Server.trace server);
  if !mismatches > 0 then begin
    Format.printf "%d answer(s) did not match their label@." !mismatches;
    exit 1
  end
