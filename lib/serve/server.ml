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

(* One LP+LF instance and the warm state kept for it.  Every basis held
   here was computed on this instance's LP (the full window) or on its
   guarantee ladder's planning window, so every token handed out fits the
   LP it is handed to; a window refresh drops the whole record. *)
type instance = {
  lp : Prospector.Lp_lf.instance;
  segments : Lp.Model.segment Segment_set.t;
      (* full-window bases with the budget interval each is optimal on *)
  ladder : Lp.Model.basis Segment_set.t;
      (* the guarantee ladder's planning-window bases, each at the budget
         it was solved at *)
}

type network = {
  topo : Sensor.Topology.t;
  cost : Sensor.Cost.t;
  mutable window : Sampling.Sample_set.t;
  mutable version : int;
  topo_hash : int64;
  (* the instance of the window re-ranked for each queried k, built
     lazily on the coordinator and cleared on window updates *)
  insts : (int, instance) Hashtbl.t;
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

let instance_for_k t net ~k =
  match Hashtbl.find_opt net.insts k with
  | Some inst -> inst
  | None ->
      let w = net.window in
      let samples =
        if k = w.Sampling.Sample_set.k then w
        else Sampling.Sample_set.of_values ~k w.Sampling.Sample_set.values
      in
      let inst =
        {
          lp = Prospector.Lp_lf.instance net.topo net.cost samples ~k;
          segments = Segment_set.create ~capacity:t.config.pool_capacity;
          ladder = Segment_set.create ~capacity:t.config.pool_capacity;
        }
      in
      Hashtbl.replace net.insts k inst;
      inst

(* ------------------------------------------------------------------ *)
(* Admission                                                           *)

(* Where a task's plan comes from. *)
type start =
  | Affine of Lp.Model.segment
      (* the budget lies in this segment: its affine point, certified;
         a point that fails certification is re-solved warm from the
         segment's basis *)
  | Warm of Lp.Model.basis
  | Scratch

type task = {
  fp : Fingerprint.t;
  t_query : query;
  t_inst : instance;
  start : start;
}

type decision =
  | D_refuse of string
  | D_cached of string * response  (* exact key, the re-served payload *)
  | D_task of int  (* leader: index into the pass's task array *)
  | D_follow of int  (* coalesced follower of task [i] *)
  | D_defer  (* admitted again after this pass commits *)

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

(* Where a miss starts from: its instance's warm state for the window it
   plans on. *)
let warm_start inst (q : query) =
  match q.guarantee with
  | Some _ -> (
      (* the ladder plans on its own window and escalates the budget rung
         by rung, so the full-window segments do not apply; its first
         rung starts from the ladder pool *)
      match Segment_set.lookup inst.ladder ~budget:q.budget with
      | Segment_set.Containing b | Segment_set.Nearest b -> Warm b
      | Segment_set.Empty -> Scratch)
  | None -> (
      match Segment_set.lookup inst.segments ~budget:q.budget with
      | Segment_set.Containing seg -> Affine seg
      | Segment_set.Nearest seg -> Warm (Lp.Model.segment_basis seg)
      | Segment_set.Empty -> Scratch)

(* Whether a committed task leaves warm state behind: a segment for a
   plain query, a ladder basis for a guarantee one.  With [pool_capacity]
   at 0 the server keeps none (the cold baseline). *)
let keeps_warm_state t = t.config.pool_capacity > 0

(* Decide one pass over the [pending] queries of a batch sequentially:
   every cache, pool, coalescing and deferral choice is made here, on the
   coordinator, before any solve runs.  A query that would start cold on
   an instance whose warm state a task of this pass is about to fill
   waits for the next pass instead, and so does a plain query that would
   start warm: the segment that task leaves may hold its budget. *)
let admit t queries pending =
  let tasks = ref [] in
  let ntasks = ref 0 in
  let leaders = Hashtbl.create 16 in
  (* (instance, guarantee?) of every task in this pass that leaves warm
     state *)
  let filling = ref [] in
  let decide q =
    match validate t q with
    | Error reason -> D_refuse reason
    | Ok net -> (
        (* re-ranking per k keeps the window's sample count *)
        let fp =
          Fingerprint.make ~network:q.network ~window:net.version ~k:q.k
            ~budget:q.budget ~guarantee:q.guarantee ~topo_hash:net.topo_hash
            ~samples:(Sampling.Sample_set.n_samples net.window)
        in
        let key = Fingerprint.exact_key fp in
        match Hashtbl.find_opt leaders key with
        | Some i -> D_follow i
        | None -> (
            match Plan_cache.find t.cache ~key with
            | Some r ->
                D_cached
                  (key, { r with source = Cache_hit; coalesced = false; solve_ms = 0. })
            | None ->
                let inst = instance_for_k t net ~k:q.k in
                let g = Option.is_some q.guarantee in
                let start = warm_start inst q in
                let waits =
                  match start with Scratch -> true | Warm _ -> not g | Affine _ -> false
                in
                let filled =
                  List.exists (fun (i, g') -> i == inst && Bool.equal g g') !filling
                in
                if waits && filled && keeps_warm_state t then D_defer
                else begin
                  let i = !ntasks in
                  ntasks := i + 1;
                  Hashtbl.replace leaders key i;
                  (* an affine task leaves no warm state (unless its point
                     fails certification), so nothing waits for it *)
                  (match start with
                  | Warm _ | Scratch -> filling := (inst, g) :: !filling
                  | Affine _ -> ());
                  tasks := { fp; t_query = q; t_inst = inst; start } :: !tasks;
                  D_task i
                end))
  in
  let decisions = List.map (fun i -> (i, decide queries.(i))) pending in
  (decisions, Array.of_list (List.rev !tasks))

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)

let effective_domains t ntasks =
  (* the trace sink is single-domain by design *)
  if Obs.Trace.active () then 1
  else Int.max 1 (Int.min t.config.domains ntasks)

(* What a task computed: the planner result, the source it really came
   from (an affine point that fails certification is re-solved warm), and
   the segment its basis leaves for the instance. *)
type solved = {
  res : (Prospector.Lp_lf.result, string) result;
  source : source;
  seg : Lp.Model.segment option;
  dt : float;
}

(* One task, on a worker: the solve and, for a plain query that leaves
   warm state, the ranging of its basis. *)
let solve_task t task =
  let lp = task.t_inst.lp and q = task.t_query in
  let solve ?warm_start () =
    Prospector.Lp_lf.solve ?warm_start
      ?max_lp_iterations:t.config.max_lp_iterations
      ?lp_deadline:t.config.lp_deadline ?guarantee:q.guarantee lp
      ~budget:q.budget
  in
  let res, source =
    match task.start with
    | Affine seg -> (
        match Prospector.Lp_lf.solve_segment lp seg ~budget:q.budget with
        | Some r -> (r, Range_hit)
        | None -> (solve ~warm_start:(Lp.Model.segment_basis seg) (), Pool_warm))
    | Warm b -> (solve ~warm_start:b (), Pool_warm)
    | Scratch -> (solve (), Cold)
  in
  let seg =
    match source with
    | (Pool_warm | Cold) when Option.is_none q.guarantee && keeps_warm_state t ->
        Prospector.Lp_lf.segment lp res
    | _ -> None
  in
  (res, source, seg)

let run_tasks t tasks =
  let ntasks = Array.length tasks in
  let results = Array.make ntasks None in
  let run_one slot i =
    let task = tasks.(i) in
    let t0 = Obs.Trace.now () in
    let res, source, seg =
      match solve_task t task with
      | res, source, seg -> (Ok res, source, seg)
      | exception e -> (Error (Printexc.to_string e), Cold, None)
    in
    let dt = Obs.Trace.now () -. t0 in
    results.(i) <- Some { res; source; seg; dt };
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

(* Keep a certified solve's warm state on its instance: a plain solve's
   segment (computed on the worker), a guarantee solve's final basis in
   the ladder pool under the budget of the rung it was solved at. *)
let deposit task (res : Prospector.Lp_lf.result) seg =
  let inst = task.t_inst in
  match task.t_query.guarantee with
  | Some _ ->
      let b = res.lp_budget in
      Option.iter (Segment_set.insert inst.ladder ~lo:b ~hi:b) res.basis
  | None ->
      Option.iter
        (fun s ->
          let lo, hi = Lp.Model.segment_bounds s in
          Segment_set.insert inst.segments ~lo ~hi s)
        seg

let commit_task t task { res; source; seg; dt } =
  match res with
  | Error msg -> Refused ("planner-exception: " ^ msg)
  | Ok (res : Prospector.Lp_lf.result) -> (
      match (res.provenance, res.certify) with
      | Prospector.Robust_plan.Fell_back_greedy, _ | _, None ->
          Refused "uncertified: the LP solve was not certified optimal"
      | Prospector.Robust_plan.Certified_revised, Some report -> (
          deposit task res seg;
          let serve guarantee =
            let resp =
              {
                plan = res.plan;
                objective = res.lp_objective;
                certify = report;
                guarantee;
                source;
                coalesced = false;
                solve_ms = dt *. 1000.;
                budget = task.t_query.budget;
              }
            in
            Plan_cache.add t.cache ~key:(Fingerprint.exact_key task.fp) resp;
            Served resp
          in
          match task.t_query.guarantee with
          | None -> serve None
          | Some (eps, delta) -> (
              match res.guarantee with
              | Some g when Prospector.Guarantee.meets g ~eps ~delta -> serve (Some g)
              | _ -> Refused "guarantee-unattainable at this budget")))

let push_trace t key tag = t.trace_rev <- (key, tag) :: t.trace_rev

(* A batch runs in passes: admit the pending queries, fan out the pass's
   tasks, commit them in task (= admission) order, then admit the
   deferred queries again, now that their instances hold a basis.  Every
   query is answered in admission order once the last pass has
   committed — all sequential, all deterministic. *)
let run_batch t queries outcomes ~offset ~len =
  let batch = Array.sub queries offset len in
  let t0 = Obs.Trace.now () in
  let answers = Array.make len (Refused "unprocessed", "-", "refused") in
  let ntasks = ref 0 and passes = ref 0 and widest = ref 0 in
  let rec pass pending =
    if pending <> [] then begin
      let decisions, tasks = admit t batch pending in
      let results = run_tasks t tasks in
      let n = Array.length tasks in
      ntasks := !ntasks + n;
      widest := Int.max !widest n;
      incr passes;
      let task_outcomes =
        Array.mapi
          (fun i task ->
            match results.(i) with
            | Some r -> commit_task t task r
            | None -> Refused "internal: task never ran")
          tasks
      in
      let answer ti ~follower =
        let key = Fingerprint.exact_key tasks.(ti).fp in
        match task_outcomes.(ti) with
        | Served r when follower -> (Served { r with coalesced = true }, key, "coalesced")
        | Served r -> (Served r, key, source_to_string r.source)
        | Refused _ as o -> (o, key, "refused")
      in
      List.iter
        (fun (i, d) ->
          match d with
          | D_refuse reason -> answers.(i) <- (Refused reason, "-", "refused")
          | D_cached (key, r) -> answers.(i) <- (Served r, key, "cache")
          | D_task ti -> answers.(i) <- answer ti ~follower:false
          | D_follow ti -> answers.(i) <- answer ti ~follower:true
          | D_defer -> ())
        decisions;
      pass
        (List.filter_map
           (function i, D_defer -> Some i | _ -> None)
           decisions)
    end
  in
  pass (List.init len Fun.id);
  t.s_solves <- t.s_solves + !ntasks;
  Array.iteri
    (fun i (outcome, key, tag) ->
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
    answers;
  t.s_batches <- t.s_batches + 1;
  let dur = Obs.Trace.now () -. t0 in
  Obs.Trace.emit Serve ~name:"serve.batch" ~start_s:t0 ~dur_s:dur
    [
      ("queries", Obs.Trace.Int len);
      ("tasks", Obs.Trace.Int !ntasks);
      ("passes", Obs.Trace.Int !passes);
      ("domains", Obs.Trace.Int (effective_domains t !widest));
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

type warm_state = { segments : (float * float) list; ladder_budgets : float list }

let warm_state t ~network ~k =
  Option.bind (Hashtbl.find_opt t.networks network) (fun net ->
      Option.map
        (fun (inst : instance) ->
          {
            segments = Segment_set.bounds inst.segments;
            ladder_budgets = List.map fst (Segment_set.bounds inst.ladder);
          })
        (Hashtbl.find_opt net.insts k))
