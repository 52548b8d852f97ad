(* Shared plumbing of the end-to-end benchmark: metrics, output checks,
   generated instances and the two run modes every workload goes
   through (untraced end-to-end, traced per-layer). *)

let now = Unix.gettimeofday

type metric = {
  name : string;
  unit_ : string;
  value : float;
  n_samples : int;
  tail : (float * float) option;  (** (percentile, value), printed beside a median *)
  exact : bool;  (** deterministic per seed: repeated runs must agree bit for bit *)
}

(* A measured metric, or with [~exact:true] one that is a function of the
   seed alone (a count, an accuracy, an energy), never of timing. *)
let metric ?(samples = 0) ?(exact = false) name unit_ value =
  { name; unit_; value; n_samples = samples; tail = None; exact }

(* The median of latencies in ms, over as many samples as [ms] holds,
   with the highest percentile that has ten samples beyond it. *)
let latency_metric ms =
  let samples = Array.length ms in
  if samples = 0 then metric "latency_ms_p50" "ms" 0.
  else
    {
      (metric ~samples "latency_ms_p50" "ms" (Stats.median ms)) with
      tail = Option.map (fun p -> (p, Stats.percentile ~p ms)) (Stats.tail_percentile samples);
    }

(* ---- output checks ----

   A failed check never stops the run: it is recorded here, printed at
   the end, turns the result's [correct] to false and the exit code to 1. *)

let failures = ref []
let failure_count = ref 0

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      incr failure_count;
      if !failure_count <= 20 then failures := msg :: !failures)
    fmt

let reported_failures () = List.rev !failures

(* ---- run context ---- *)

type ctx = {
  seed : int;
  seconds : float;
  smoke : bool;  (** tiny instances, every check on *)
}

(* A per-purpose seed: inputs drawn for different purposes never share a
   generator, so adding a draw to one cannot shift another. *)
let sub_seed ctx salt = (ctx.seed * 1_000_003) + salt

(* The deployments — topologies, fields, sample windows, and so the LP
   instances — form a fixed corpus drawn from this seed; the run's seed
   draws what a deployment sees from run to run: readings, link faults,
   query streams and arrivals.  A per-seed corpus would make the LP work
   itself differ from seed to seed by more than any bound worth
   enforcing. *)
let corpus_seed = 20060403

let corpus_rng salt = Rng.create ((corpus_seed * 1_000_003) + salt)

let mica = Sensor.Mica2.default

(* ---- generated instances ---- *)

type instance = {
  topo : Sensor.Topology.t;
  cost : Sensor.Cost.t;
  field : Sampling.Field.t;
  samples : Sampling.Sample_set.t;
  k : int;
  budget : float;
}

(* The budget unit: the expected collection energy of the cheapest
   proof-carrying plan (bandwidth 1 on every edge). *)
let anchor_mj topo cost =
  Prospector.Plan.expected_collection_mj topo cost
    (Prospector.Proof_exec.min_bandwidth_plan topo)

let make_instance rng ~n ~m ~k ~budget_factor =
  let layout = Sensor.Placement.uniform rng ~n ~width:200. ~height:200. () in
  let range = Sensor.Topology.min_connecting_range layout *. 1.25 in
  let topo = Sensor.Topology.build layout ~range in
  let cost = Sensor.Cost.of_mica2 topo mica in
  let field =
    Sampling.Field.random_gaussian rng ~n ~mean_lo:20. ~mean_hi:30. ~sigma_lo:1.
      ~sigma_hi:4.
  in
  let samples = Sampling.Sample_set.draw rng field ~k ~count:m in
  { topo; cost; field; samples; k; budget = budget_factor *. anchor_mj topo cost }

(* Held-out epochs: readings plus the membership mask of their true top k,
   so scoring an answer costs O(k). *)
type epoch = { readings : float array; top : bool array }

let make_epoch rng (field : Sampling.Field.t) ~k =
  let readings = field.Sampling.Field.draw rng in
  let top = Array.make field.Sampling.Field.n false in
  List.iter (fun (i, _) -> top.(i) <- true) (Prospector.Exec.true_top_k ~k readings);
  { readings; top }

let accuracy ~k epoch returned =
  let hits =
    List.fold_left (fun acc (i, _) -> if epoch.top.(i) then acc + 1 else acc) 0 returned
  in
  float_of_int hits /. float_of_int k

let bandwidths topo plan =
  Array.init topo.Sensor.Topology.n (Prospector.Plan.bandwidth plan)

let certified = function
  | Some r -> r.Lp.Certify.certified
  | None -> false

(* Simnet's energy ledger must balance: per-node energies sum to the
   reported total within 1e-9 relative. *)
let check_energy_ledger what (r : Prospector.Simnet_exec.result) =
  let sum = Array.fold_left ( +. ) 0. r.Prospector.Simnet_exec.per_node_mj in
  let total = r.Prospector.Simnet_exec.total_mj in
  if Float.abs (sum -. total) > 1e-9 *. Float.max 1. (Float.abs total) then
    fail "%s: per-node energy sums to %.17g, total_mj is %.17g" what sum total

let fault_rng ctx ~salt ~epoch = Rng.create (sub_seed ctx salt + (7919 * epoch))

(* Simulator tallies over the collections of the executed plan: work
   done per epoch (exact per seed) and the simulator's own speed. *)
type simnet_tally = {
  mutable s_epochs : int;
  mutable s_unicasts : int;
  mutable s_retransmissions : int;
  mutable s_dark_epochs : int;
  mutable s_latency : float list;  (* simulated seconds *)
  mutable s_wall : float;
}

let simnet_tally () =
  { s_epochs = 0; s_unicasts = 0; s_retransmissions = 0; s_dark_epochs = 0; s_latency = []; s_wall = 0. }

let tally_collect s ~wall (r : Prospector.Simnet_exec.result) =
  s.s_epochs <- s.s_epochs + 1;
  s.s_unicasts <- s.s_unicasts + r.Prospector.Simnet_exec.unicasts;
  s.s_retransmissions <- s.s_retransmissions + r.Prospector.Simnet_exec.retransmissions;
  if r.Prospector.Simnet_exec.dark <> [] then s.s_dark_epochs <- s.s_dark_epochs + 1;
  s.s_latency <- r.Prospector.Simnet_exec.latency_s :: s.s_latency;
  s.s_wall <- s.s_wall +. wall

let simnet_layers s =
  let per_epoch v = float_of_int v /. float_of_int (Int.max 1 s.s_epochs) in
  [
    metric ~exact:true "simnet.unicasts_per_epoch" "count" (per_epoch s.s_unicasts);
    metric ~exact:true "simnet.retransmissions_per_epoch" "count" (per_epoch s.s_retransmissions);
    metric ~exact:true "simnet.dark_epochs" "count" (float_of_int s.s_dark_epochs);
    metric ~samples:s.s_epochs ~exact:true "simnet.sim_latency_p50" "sim_s"
      (if s.s_latency = [] then 0. else Stats.median (Array.of_list s.s_latency));
    metric "simnet.unicasts_per_s" "1/s"
      (if s.s_wall > 0. then float_of_int s.s_unicasts /. s.s_wall else 0.);
  ]

(* ---- measuring ---- *)

let timed f =
  let t0 = now () in
  let v = f () in
  (now () -. t0, v)

(* The smallest of each key's values, in key order.  Passes repeat the
   same deterministic operations, so an operation's fastest pass is its
   cost with the least interference from whatever else the machine was
   doing.  On a shared machine that interference comes in spells of
   seconds that slow everything by half or more, which a median over a
   short run does not remove.  Every timing is therefore built from
   per-operation minima, which need one quiet moment per operation
   somewhere in the run, where the fastest whole pass would need a quiet
   spell as long as a pass. *)
let best_assoc samples =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (key, v) ->
      Hashtbl.replace tbl key
        (match Hashtbl.find_opt tbl key with Some b -> Float.min b v | None -> v))
    samples;
  Hashtbl.fold (fun key v acc -> (key, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let best_by_key samples = Array.of_list (List.map snd (best_assoc samples))

(* Operations per second at the per-operation minima: [count] operations
   over the summed fastest time of each. *)
let ops_per_s ~count samples =
  let best = best_by_key samples in
  metric ~samples:(List.length samples) "ops_per_s" "1/s"
    (float_of_int count /. Array.fold_left ( +. ) 0. best)

(* Run [f] at least once and until [seconds] have passed. *)
let repeat_for ~seconds f =
  let deadline = now () +. seconds in
  let rec go i =
    f i;
    if now () < deadline then go (i + 1)
  in
  go 0

type 'x outcome = {
  e2e : metric list;  (** every end-to-end metric except [setup_s] *)
  op_s : (int * float) list;  (** per-operation wall times, keyed by operation *)
  attempted : int;
  failed : int;
  extra : 'x;  (** what the workload's per-layer metrics are computed from *)
}

type result = {
  metrics : metric list;
  attempted : int;
  failed : int;
  trace_events : Spans.span list;
}

(* A workload's [measure] calls [fresh ()] at the start of every pass
   (round, campaign) for a newly set-up environment.  Set-ups are
   deterministic, so every pass does the same work; and set-up is timed
   throughout the run, not in one spell before it.  Every set-up and
   every pass starts from a compacted heap, so that what earlier passes
   and workloads left behind in one process does not change the
   collector's work.  [on_setup] receives each set-up's time. *)
let fresh_env ctx ~setup ~on_setup () =
  Gc.compact ();
  let dt, env = timed (fun () -> setup ctx) in
  on_setup dt;
  Gc.compact ();
  env

(* Untraced run.  [setup_s] pairs each set-up with the one half a run
   later and takes the median over pairs of the faster of each: like the
   per-operation minima, that keeps a slow spell of a few seconds out,
   where a plain median over the run's set-ups follows whether the
   machine was slow for more or less than half of the run. *)
let run_untraced ctx ~setup ~measure =
  let times = ref [] in
  let fresh = fresh_env ctx ~setup ~on_setup:(fun dt -> times := dt :: !times) in
  let o = measure ctx ~fresh ~spans:(Spans.create ~enabled:false) ~seconds:ctx.seconds in
  let times = Array.of_list (List.rev !times) in
  {
    metrics = metric ~samples:(Array.length times) "setup_s" "s" (Stats.paired_median times) :: o.e2e;
    attempted = o.attempted;
    failed = o.failed;
    trace_events = [];
  }

let layer_names =
  [
    ("lp_lf.lp_model", "lp_lf.model");
    ("lp.to_problem", "lp.lower");
    ("lp.revised.solve", "lp.revised");
    ("lp.certify", "lp.certify");
    ("plan.of_fractional", "plan.round");
    ("exec.collect", "exec.collect");
    ("simnet.collect", "simnet.collect");
    ("repair.observe", "repair.observe");
    ("serve.run", "serve.run");
  ]

(* Operations whose root span is named with this prefix are probes run
   beside the measured loop (e.g. the warm re-solve probe); they are
   traced but left out of the layer shares. *)
let probe_prefix = "probe."

(* Per-layer run: half the time untraced, half traced, set-ups untimed.
   The generic metrics — traced operation time, tracing overhead, and
   each layer's share of operation time by self time — come from the
   spans; [layers] adds the workload's own. *)
let run_traced ctx ~setup ~measure ~layers =
  let seconds = ctx.seconds /. 2. in
  let fresh = fresh_env ctx ~setup ~on_setup:ignore in
  let plain = Spans.create ~enabled:false in
  let u = measure ctx ~fresh ~spans:plain ~seconds in
  let spans = Spans.create ~enabled:true in
  let t = measure ctx ~fresh ~spans ~seconds in
  let all = Spans.spans spans in
  let probe_ops = Hashtbl.create 16 in
  List.iter
    (fun (s : Spans.span) ->
      if s.Spans.parent = 0 && String.starts_with ~prefix:probe_prefix s.Spans.name then
        Hashtbl.replace probe_ops s.Spans.op ())
    all;
  let measured =
    List.filter (fun (s : Spans.span) -> not (Hashtbl.mem probe_ops s.Spans.op)) all
  in
  let op_total, bench_self =
    List.fold_left
      (fun (total, self) ((s : Spans.span), own) ->
        if s.Spans.parent = 0 then (total +. s.Spans.dur_s, self +. own)
        else (total, self))
      (0., 0.) (Spans.self_times measured)
  in
  let self = Spans.self_by_name measured in
  let self_of name =
    Option.value (List.assoc_opt name self) ~default:0.
  in
  let share v = if op_total > 0. then v /. op_total else 0. in
  (* overhead: each operation's best traced time against its best
     untraced time, summed over the operations both halves ran *)
  let untraced_best = Hashtbl.create 64 in
  List.iter (fun (k, v) -> Hashtbl.replace untraced_best k v) (best_assoc u.op_s);
  let both =
    List.filter_map
      (fun (k, v) -> Option.map (fun u -> (v, u)) (Hashtbl.find_opt untraced_best k))
      (best_assoc t.op_s)
  in
  let traced_best = Array.of_list (List.map fst both) in
  let untraced_sum = List.fold_left (fun acc (_, u) -> acc +. u) 0. both in
  let overhead =
    if untraced_sum > 0. then (Array.fold_left ( +. ) 0. traced_best /. untraced_sum) -. 1. else 0.
  in
  let generic =
    [
      metric ~samples:(List.length t.op_s) "trace.op_ms" "ms" (1000. *. Stats.mean traced_best);
      metric "trace.overhead_frac" "frac" overhead;
      metric "bench.self_frac" "frac" (share bench_self);
    ]
    @ List.map
        (fun (span_name, layer) ->
          metric (layer ^ ".self_frac") "frac" (share (self_of span_name)))
        layer_names
  in
  {
    metrics = generic @ layers ~untraced:u ~traced:t all;
    attempted = u.attempted + t.attempted;
    failed = u.failed + t.failed;
    trace_events = all;
  }
