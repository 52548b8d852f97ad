type config = {
  cache_capacity : int;
  pool_capacity : int;
  batch : int;
  domains : int;
  max_lp_iterations : int option;
  lp_deadline : float option;
}

let default_config =
  {
    cache_capacity = 256;
    pool_capacity = 8;
    batch = 32;
    domains = 1;
    max_lp_iterations = None;
    lp_deadline = None;
  }

type network = {
  topo : Sensor.Topology.t;
  cost : Sensor.Cost.t;
  mutable window : Sampling.Sample_set.t;
  mutable version : int;
  topo_hash : int64;
  (* the LP+LF instance of the window re-ranked for each queried k, built
     lazily on the coordinator and cleared on window updates *)
  insts : (int, Prospector.Lp_lf.instance) Hashtbl.t;
}

type query = {
  network : int;
  k : int;
  budget : float;
  guarantee : (float * float) option;
}

let query ?guarantee ~network ~k budget = { network; k; budget; guarantee }

type source = Cache_hit | Range_hit | Pool_warm | Cold

let source_to_string = function
  | Cache_hit -> "cache"
  | Range_hit -> "range"
  | Pool_warm -> "pool"
  | Cold -> "cold"

type response = {
  plan : Prospector.Plan.t;
  objective : float;
  provenance : Prospector.Robust_plan.provenance;
  certify : Lp.Certify.report;
  guarantee : Prospector.Guarantee.t option;
  source : source;
  coalesced : bool;
  solve_ms : float;
  budget : float;
}

type outcome = Served of response | Refused of string

type stats = {
  queries : int;
  batches : int;
  cache_hits : int;
  range_hits : int;
  pool_hits : int;
  cold_misses : int;
  coalesced : int;
  refused : int;
  solves : int;
  evictions : int;
}

type arena = { mutable a_solves : int; mutable a_busy : float }

type t = {
  config : config;
  networks : (int, network) Hashtbl.t;
  mutable next_network : int;
  cache : response Plan_cache.t;
  pool : Basis_pool.t;
  arenas : arena array;
  mutable trace_rev : (string * string) list;
  mutable s_queries : int;
  mutable s_batches : int;
  mutable s_cache_hits : int;
  mutable s_range_hits : int;
  mutable s_pool_hits : int;
  mutable s_cold : int;
  mutable s_coalesced : int;
  mutable s_refused : int;
  mutable s_solves : int;
}

let create ?(config = default_config) () =
  if config.batch < 1 then invalid_arg "Server.create: batch < 1";
  if config.domains < 1 then invalid_arg "Server.create: domains < 1";
  {
    config;
    networks = Hashtbl.create 8;
    next_network = 0;
    cache = Plan_cache.create ~capacity:config.cache_capacity;
    pool = Basis_pool.create ~capacity:config.pool_capacity;
    arenas = Array.init config.domains (fun _ -> { a_solves = 0; a_busy = 0. });
    trace_rev = [];
    s_queries = 0;
    s_batches = 0;
    s_cache_hits = 0;
    s_range_hits = 0;
    s_pool_hits = 0;
    s_cold = 0;
    s_coalesced = 0;
    s_refused = 0;
    s_solves = 0;
  }

let register t topo cost samples =
  let open Sensor.Topology in
  if samples.Sampling.Sample_set.n <> topo.n then
    invalid_arg "Server.register: sample window and topology disagree on n";
  let id = t.next_network in
  t.next_network <- id + 1;
  let net =
    {
      topo;
      cost;
      window = samples;
      version = 0;
      topo_hash = Fingerprint.hash_parents ~root:topo.root topo.parent;
      insts = Hashtbl.create 4;
    }
  in
  Hashtbl.replace t.networks id net;
  id

let update_window t ~network samples =
  match Hashtbl.find_opt t.networks network with
  | None -> invalid_arg "Server.update_window: unknown network"
  | Some net ->
      if samples.Sampling.Sample_set.n <> net.topo.Sensor.Topology.n then
        invalid_arg "Server.update_window: sample window disagrees on n";
      net.window <- samples;
      net.version <- net.version + 1;
      Hashtbl.reset net.insts

let instance_for_k net ~k =
  match Hashtbl.find_opt net.insts k with
  | Some inst -> inst
  | None ->
      let w = net.window in
      let samples =
        if k = w.Sampling.Sample_set.k then w
        else Sampling.Sample_set.of_values ~k w.Sampling.Sample_set.values
      in
      let inst = Prospector.Lp_lf.instance net.topo net.cost samples ~k in
      Hashtbl.replace net.insts k inst;
      inst

(* ------------------------------------------------------------------ *)
(* Admission                                                           *)

type task = {
  fp : Fingerprint.t;
  t_query : query;
  t_inst : Prospector.Lp_lf.instance;
  t_source : source;  (* Range_hit | Pool_warm | Cold *)
  warm : Lp.Model.basis option;
  (* the warm token is the query's own family basis: a certified 0-pivot
     re-solve then extends the family's budget range (see commit) *)
  t_family_warm : bool;
}

type decision =
  | D_refuse of string
  | D_cached of string * response  (* exact key, the re-served payload *)
  | D_task of int  (* leader: index into the batch's task array *)
  | D_follow of int  (* coalesced follower of task [i] *)

let validate t q =
  match Hashtbl.find_opt t.networks q.network with
  | None -> Error "unknown network"
  | Some net ->
      if q.k < 1 || q.k > net.topo.Sensor.Topology.n then Error "bad k"
      else if not (Float.is_finite q.budget) || q.budget < 0. then
        Error "bad budget"
      else
        let guarantee_ok =
          match q.guarantee with
          | None -> true
          | Some (eps, delta) ->
              Float.is_finite eps && eps > 0. && delta > 0. && delta < 1.
        in
        if not guarantee_ok then Error "bad guarantee target" else Ok net

(* Decide one batch sequentially: every cache, pool and coalescing choice
   is made here, on the coordinator, before any solve runs. *)
let admit t queries =
  let tasks = ref [] in
  let ntasks = ref 0 in
  let leaders = Hashtbl.create 16 in
  let decisions =
    Array.map
      (fun q ->
        match validate t q with
        | Error reason -> D_refuse reason
        | Ok net -> (
            (* re-ranking per k keeps the window's sample count *)
            let fp =
              Fingerprint.make ~network:q.network ~window:net.version ~k:q.k
                ~budget:q.budget ~guarantee:q.guarantee
                ~topo_hash:net.topo_hash
                ~samples:(Sampling.Sample_set.n_samples net.window)
            in
            let key = Fingerprint.exact_key fp in
            match Hashtbl.find_opt leaders key with
            | Some i -> D_follow i
            | None -> (
                match Plan_cache.find t.cache ~key with
                | Some r ->
                    D_cached
                      ( key,
                        { r with source = Cache_hit; coalesced = false; solve_ms = 0. }
                      )
                | None ->
                    let t_source, warm, t_family_warm =
                      match q.guarantee with
                      | Some _ -> (
                          (* guarantee planning escalates the budget rung by
                             rung, so family-range evidence does not apply;
                             the pool still provides a warm hint *)
                          match
                            Basis_pool.lookup t.pool
                              ~shape:(Fingerprint.shape_key fp) ~budget:q.budget
                          with
                          | Some b -> (Pool_warm, Some b, false)
                          | None -> (Cold, None, false))
                      | None -> (
                          match
                            Plan_cache.family t.cache
                              ~key:(Fingerprint.family_key fp)
                          with
                          | Some (b, lo, hi) when q.budget >= lo && q.budget <= hi
                            ->
                              (Range_hit, Some b, true)
                          | Some (b, _, _) ->
                              (* outside the certified range: still warm from
                                 the family basis — a certified 0-pivot
                                 re-solve is exactly the evidence that lets
                                 the commit phase widen the range to here *)
                              (Pool_warm, Some b, true)
                          | None -> (
                              match
                                Basis_pool.lookup t.pool
                                  ~shape:(Fingerprint.shape_key fp)
                                  ~budget:q.budget
                              with
                              | Some b -> (Pool_warm, Some b, false)
                              | None -> (Cold, None, false)))
                    in
                    let i = !ntasks in
                    ntasks := i + 1;
                    Hashtbl.replace leaders key i;
                    tasks :=
                      { fp; t_query = q; t_inst = instance_for_k net ~k:q.k;
                        t_source; warm; t_family_warm }
                      :: !tasks;
                    D_task i)))
      queries
  in
  (decisions, Array.of_list (List.rev !tasks))

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)

let effective_domains t ntasks =
  (* the trace sink is single-domain by design *)
  if Obs.Trace.active () then 1
  else Int.max 1 (Int.min t.config.domains ntasks)

let run_tasks t tasks =
  let ntasks = Array.length tasks in
  let results = Array.make ntasks None in
  let run_one slot i =
    let task = tasks.(i) in
    let t0 = Obs.Trace.now () in
    let r =
      try
        Ok
          (Prospector.Lp_lf.solve ?warm_start:task.warm
             ?max_lp_iterations:t.config.max_lp_iterations
             ?lp_deadline:t.config.lp_deadline ?guarantee:task.t_query.guarantee
             task.t_inst ~budget:task.t_query.budget)
      with e -> Error (Printexc.to_string e)
    in
    let dt = Obs.Trace.now () -. t0 in
    results.(i) <- Some (r, dt);
    let a = t.arenas.(slot) in
    a.a_solves <- a.a_solves + 1;
    a.a_busy <- a.a_busy +. dt
  in
  let nd = effective_domains t ntasks in
  (if nd <= 1 then
     for i = 0 to ntasks - 1 do
       run_one 0 i
     done
   else
     (* Deterministic work stealing: tasks are claimed in admission order
        through one atomic cursor; which domain claims which index is
        timing-dependent, but each result lands in its own slot and every
        decision about the results happens after the join. *)
     let cursor = Atomic.make 0 in
     let worker slot () =
       let rec loop () =
         let i = Atomic.fetch_and_add cursor 1 in
         if i < ntasks then begin
           run_one slot i;
           loop ()
         end
       in
       loop ()
     in
     let spawned =
       Array.init (nd - 1) (fun w -> Domain.spawn (worker (w + 1)))
     in
     worker 0 ();
     Array.iter Domain.join spawned);
  results

(* ------------------------------------------------------------------ *)
(* Commit                                                              *)

let commit_task t task (result, dt) =
  match result with
  | Error msg -> Refused ("planner-exception: " ^ msg)
  | Ok (res : Prospector.Lp_lf.result) -> (
      match (res.certify, res.provenance) with
      | None, _ | _, Prospector.Robust_plan.Fell_back_greedy ->
          Refused "uncertified: no LP stage passed certification"
      | Some report, provenance -> (
          let serve guarantee =
            let resp =
              {
                plan = res.plan;
                objective = res.lp_objective;
                provenance;
                certify = report;
                guarantee;
                source = task.t_source;
                coalesced = false;
                solve_ms = dt *. 1000.;
                budget = task.t_query.budget;
              }
            in
            Plan_cache.add t.cache ~key:(Fingerprint.exact_key task.fp) resp;
            (match res.basis with
            | None -> ()
            | Some basis ->
                (match task.t_query.guarantee with
                | Some _ -> ()
                | None ->
                    let fkey = Fingerprint.family_key task.fp in
                    let zero_pivots =
                      match res.lp_stats with
                      | Some s -> s.Lp.Revised.iterations = 0
                      | None -> false
                    in
                    let extend =
                      (* certified 0-pivot warm re-solve from the family's
                         own basis: the convexity evidence the range logic
                         requires (see Plan_cache) — the basis is optimal at
                         the family's certified points and now at this
                         budget, hence on their convex hull *)
                      match provenance with
                      | Prospector.Robust_plan.Certified_revised ->
                          task.t_family_warm && zero_pivots
                      | _ -> false
                    in
                    if extend then
                      Plan_cache.extend_family t.cache ~key:fkey ~basis
                        ~budget:task.t_query.budget
                    else
                      Plan_cache.anchor_family t.cache ~key:fkey ~basis
                        ~budget:task.t_query.budget);
                Basis_pool.insert t.pool
                  ~shape:(Fingerprint.shape_key task.fp)
                  ~budget:task.t_query.budget basis);
            Served resp
          in
          match task.t_query.guarantee with
          | None -> serve None
          | Some (eps, delta) -> (
              match res.guarantee with
              | Some g when Prospector.Guarantee.meets g ~eps ~delta -> serve (Some g)
              | _ -> Refused "guarantee-unattainable at this budget")))

let push_trace t key tag = t.trace_rev <- (key, tag) :: t.trace_rev

let run_batch t queries outcomes ~offset ~len =
  let batch = Array.sub queries offset len in
  let t0 = Obs.Trace.now () in
  let decisions, tasks = admit t batch in
  let results = run_tasks t tasks in
  t.s_solves <- t.s_solves + Array.length tasks;
  (* Commit leaders in task (= admission) order, then answer every query in
     admission order — all sequential, all deterministic. *)
  let task_outcomes =
    Array.mapi
      (fun i task ->
        match results.(i) with
        | Some r -> commit_task t task r
        | None -> Refused "internal: task never ran")
      tasks
  in
  Array.iteri
    (fun i d ->
      let outcome, key, tag =
        match d with
        | D_refuse reason -> (Refused reason, "-", "refused")
        | D_cached (key, r) -> (Served r, key, "cache")
        | D_task ti -> (
            let key = Fingerprint.exact_key tasks.(ti).fp in
            match task_outcomes.(ti) with
            | Served r -> (Served r, key, source_to_string r.source)
            | Refused _ as o -> (o, key, "refused"))
        | D_follow ti -> (
            let key = Fingerprint.exact_key tasks.(ti).fp in
            match task_outcomes.(ti) with
            | Served r -> (Served { r with coalesced = true }, key, "coalesced")
            | Refused _ as o -> (o, key, "refused"))
      in
      t.s_queries <- t.s_queries + 1;
      (match outcome with
      | Refused _ -> t.s_refused <- t.s_refused + 1
      | Served r -> (
          if r.coalesced then t.s_coalesced <- t.s_coalesced + 1
          else
            match r.source with
            | Cache_hit -> t.s_cache_hits <- t.s_cache_hits + 1
            | Range_hit -> t.s_range_hits <- t.s_range_hits + 1
            | Pool_warm -> t.s_pool_hits <- t.s_pool_hits + 1
            | Cold -> t.s_cold <- t.s_cold + 1));
      push_trace t key tag;
      outcomes.(offset + i) <- outcome)
    decisions;
  t.s_batches <- t.s_batches + 1;
  let dur = Obs.Trace.now () -. t0 in
  Obs.Trace.emit Serve ~name:"serve.batch" ~start_s:t0 ~dur_s:dur
    [
      ("queries", Obs.Trace.Int len);
      ("tasks", Obs.Trace.Int (Array.length tasks));
      ("domains", Obs.Trace.Int (effective_domains t (Array.length tasks)));
    ]

let run t queries =
  let n = Array.length queries in
  let outcomes = Array.make n (Refused "unprocessed") in
  let offset = ref 0 in
  while !offset < n do
    let len = Int.min t.config.batch (n - !offset) in
    run_batch t queries outcomes ~offset:!offset ~len;
    offset := !offset + len
  done;
  outcomes

(* ------------------------------------------------------------------ *)
(* Introspection                                                       *)

let stats t =
  {
    queries = t.s_queries;
    batches = t.s_batches;
    cache_hits = t.s_cache_hits;
    range_hits = t.s_range_hits;
    pool_hits = t.s_pool_hits;
    cold_misses = t.s_cold;
    coalesced = t.s_coalesced;
    refused = t.s_refused;
    solves = t.s_solves;
    evictions = Plan_cache.evictions t.cache;
  }

let trace t = List.rev t.trace_rev

let clear_trace t = t.trace_rev <- []

let arena_stats t = Array.map (fun a -> (a.a_solves, a.a_busy)) t.arenas
