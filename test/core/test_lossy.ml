(* Randomized differential testing of the fault-injection + ACK/retransmit
   layer: under recoverable frame loss every message-level executor must
   still return exactly what the analytic executors compute — the
   reliability sublayer hides the loss completely — while the measured
   energy can only go up.  Crashed subtrees degrade to a partial answer
   over the reachable nodes, tagged dark, and the run still terminates. *)

let mica = Sensor.Mica2.default

let random_tree rng n =
  let parent = Array.init n (fun i -> if i = 0 then -1 else Rng.int rng i) in
  Sensor.Topology.of_parents ~root:0 parent

let random_readings rng n =
  Array.init n (fun _ -> Rng.gaussian rng ~mu:20. ~sigma:5.)

let ids answer = List.map fst answer

let full_plan topo ~k =
  Prospector.Plan.make topo
    (Array.mapi
       (fun i size -> if i = topo.Sensor.Topology.root then 0 else Int.min size k)
       topo.Sensor.Topology.subtree_size)

let drop_rates = [ 0.; 0.05; 0.2 ]

let n_seeds = 50

(* One scenario per seed: a random topology and reading set, exercised at
   each drop rate by all four message-level executors.

   The retry schedule is bounded, so "recoverable" loss is only
   recoverable with overwhelming probability: at the highest drop rate a
   frame can exhaust every retry (p ~ per-round-loss ^ retries; QCheck
   input 2900 finds one).  The property is therefore: loss is invisible
   {e unless} the engine declared the link dead after fighting for it —
   darkness is always accounted (dark set + retransmissions), never
   silent, and only then may the answer degrade or the energy dip below
   the lossless baseline (fast-fail stops paying for a dead link). *)
let recoverable_loss_is_invisible =
  QCheck.Test.make
    ~name:
      "recoverable loss: exact analytic answers and dominated energy unless \
       a link died fighting" ~count:n_seeds
    (QCheck.make ~print:string_of_int QCheck.Gen.(0 -- 100_000))
    (fun seed ->
      let rng = Rng.create (seed + 81) in
      let n = 2 + Rng.int rng 20 in
      let k = 1 + Rng.int rng 5 in
      let topo = random_tree rng n in
      let cost = Sensor.Cost.of_mica2 topo mica in
      let readings = random_readings rng n in
      let plan = full_plan topo ~k in
      let pplan = Prospector.Proof_exec.min_bandwidth_plan topo in
      let naive = Prospector.Naive.naive_one topo cost ~k ~readings in
      let naive_k = Prospector.Naive.naive_k topo cost ~k ~readings in
      let proof = Prospector.Proof_exec.run topo cost pplan ~k ~readings in
      let truth = ids (Prospector.Exec.true_top_k ~k readings) in
      let baseline = ref None in
      List.for_all
        (fun drop ->
          let fault () =
            (Simnet.Fault.bernoulli ~n ~drop, Rng.create (seed + 7))
          in
          let collect =
            Prospector.Simnet_exec.collect topo mica ~fault:(fault ()) plan ~k
              ~readings
          in
          let pull =
            Prospector.Simnet_protocols.naive_one topo mica ~fault:(fault ())
              ~k ~readings ()
          in
          let pc =
            Prospector.Simnet_protocols.proof_collect topo mica
              ~fault:(fault ()) pplan ~k ~readings ()
          in
          let ex =
            Prospector.Simnet_protocols.exact topo mica ~fault:(fault ()) pplan
              ~k ~readings ()
          in
          (* (answer exact, dark, retransmissions, energy) per executor *)
          let runs =
            [
              ( ids collect.Prospector.Simnet_exec.returned
                = ids naive_k.Prospector.Naive.returned,
                collect.Prospector.Simnet_exec.dark,
                collect.Prospector.Simnet_exec.retransmissions,
                collect.Prospector.Simnet_exec.total_mj );
              ( ids pull.Prospector.Simnet_protocols.returned
                = ids naive.Prospector.Naive.returned,
                pull.Prospector.Simnet_protocols.dark,
                pull.Prospector.Simnet_protocols.retransmissions,
                pull.Prospector.Simnet_protocols.total_mj );
              ( ids
                  pc.Prospector.Simnet_protocols.base
                    .Prospector.Simnet_protocols.returned
                  = ids proof.Prospector.Proof_exec.result
                && pc.Prospector.Simnet_protocols.proven_count
                   = proof.Prospector.Proof_exec.proven_count,
                pc.Prospector.Simnet_protocols.base
                  .Prospector.Simnet_protocols.dark,
                pc.Prospector.Simnet_protocols.base
                  .Prospector.Simnet_protocols.retransmissions,
                pc.Prospector.Simnet_protocols.base
                  .Prospector.Simnet_protocols.total_mj );
              ( ids ex.Prospector.Simnet_protocols.answer = truth,
                ex.Prospector.Simnet_protocols.dark,
                ex.Prospector.Simnet_protocols.retransmissions,
                ex.Prospector.Simnet_protocols.total_mj );
            ]
          in
          let not_cheaper =
            (* The first rate in [drop_rates] is 0: the lossless reliable
               run is the baseline every clean lossy run must dominate.  A
               run that declared a link dead is exempt — fast-fail stops
               spending on the dead link. *)
            match !baseline with
            | None ->
                baseline := Some (List.map (fun (_, _, _, e) -> e) runs);
                true
            | Some base ->
                List.for_all2
                  (fun (_, dark, _, e) b -> dark <> [] || e >= b -. 1e-9)
                  runs base
          in
          List.for_all
            (fun (exact_answer, dark, retrans, _) ->
              if dark = [] then exact_answer
              else
                (* Accounted degradation: a dead link was fought for
                   (retries on the air) before being declared. *)
                drop > 0. && retrans > 0)
            runs
          && not_cheaper
          && ((drop > 0.)
             || collect.Prospector.Simnet_exec.retransmissions = 0))
        drop_rates)

(* A lossless run over the reliability sublayer must cost exactly what the
   legacy direct-delivery path charges: ACKs ride in the per-message
   allowance, so rate 0 is not merely close, it is equal. *)
let lossless_reliable_equals_legacy =
  QCheck.Test.make
    ~name:"rate-0 fault injection charges exactly the legacy energy"
    ~count:n_seeds
    (QCheck.make ~print:string_of_int QCheck.Gen.(0 -- 100_000))
    (fun seed ->
      let rng = Rng.create (seed + 82) in
      let n = 2 + Rng.int rng 20 in
      let k = 1 + Rng.int rng 5 in
      let topo = random_tree rng n in
      let readings = random_readings rng n in
      let plan = full_plan topo ~k in
      let legacy = Prospector.Simnet_exec.collect topo mica plan ~k ~readings in
      let reliable =
        Prospector.Simnet_exec.collect topo mica
          ~fault:(Simnet.Fault.none ~n, Rng.create seed)
          plan ~k ~readings
      in
      ids legacy.Prospector.Simnet_exec.returned
      = ids reliable.Prospector.Simnet_exec.returned
      && Float.abs
           (legacy.Prospector.Simnet_exec.total_mj
           -. reliable.Prospector.Simnet_exec.total_mj)
         < 1e-9
      && legacy.Prospector.Simnet_exec.unicasts
         = reliable.Prospector.Simnet_exec.unicasts)

(* Same seed, same simulation — bit for bit, including the energy ledgers
   and the loss bookkeeping. *)
let same_seed_is_bit_identical =
  QCheck.Test.make ~name:"same-seed lossy runs are bit-identical" ~count:n_seeds
    (QCheck.make ~print:string_of_int QCheck.Gen.(0 -- 100_000))
    (fun seed ->
      let rng = Rng.create (seed + 83) in
      let n = 2 + Rng.int rng 20 in
      let k = 1 + Rng.int rng 5 in
      let topo = random_tree rng n in
      let readings = random_readings rng n in
      let plan = full_plan topo ~k in
      let run () =
        Prospector.Simnet_exec.collect topo mica
          ~fault:
            ( Simnet.Fault.with_burst
                (Simnet.Fault.bernoulli ~n ~drop:0.2)
                ~mean_length:0.02,
              Rng.create (seed + 9) )
          plan ~k ~readings
      in
      let a = run () and b = run () in
      a.Prospector.Simnet_exec.returned = b.Prospector.Simnet_exec.returned
      && a.Prospector.Simnet_exec.total_mj = b.Prospector.Simnet_exec.total_mj
      && a.Prospector.Simnet_exec.per_node_mj
         = b.Prospector.Simnet_exec.per_node_mj
      && a.Prospector.Simnet_exec.latency_s = b.Prospector.Simnet_exec.latency_s
      && a.Prospector.Simnet_exec.unicasts = b.Prospector.Simnet_exec.unicasts
      && a.Prospector.Simnet_exec.retransmissions
         = b.Prospector.Simnet_exec.retransmissions
      && a.Prospector.Simnet_exec.dark = b.Prospector.Simnet_exec.dark)

(* Burst loss windows are recoverable too: retries outlast the outage. *)
let burst_loss_recovers =
  QCheck.Test.make ~name:"burst loss recovers to the exact answer"
    ~count:n_seeds
    (QCheck.make ~print:string_of_int QCheck.Gen.(0 -- 100_000))
    (fun seed ->
      let rng = Rng.create (seed + 84) in
      let n = 2 + Rng.int rng 15 in
      let k = 1 + Rng.int rng 5 in
      let topo = random_tree rng n in
      let readings = random_readings rng n in
      let pplan = Prospector.Proof_exec.min_bandwidth_plan topo in
      let fault =
        ( Simnet.Fault.with_burst
            (Simnet.Fault.bernoulli ~n ~drop:0.1)
            ~mean_length:0.05,
          Rng.create (seed + 11) )
      in
      let ex =
        Prospector.Simnet_protocols.exact topo mica ~fault pplan ~k ~readings ()
      in
      ids ex.Prospector.Simnet_protocols.answer
      = ids (Prospector.Exec.true_top_k ~k readings)
      && ex.Prospector.Simnet_protocols.dark = [])

(* ---- crash degradation ---- *)

let alive_top_k topo readings ~k ~dead =
  let dark = Sensor.Topology.descendants topo dead in
  let alive =
    Prospector.Exec.true_top_k ~k:(Array.length readings)
      (Array.mapi (fun i v -> if List.mem i dark then neg_infinity else v)
         readings)
    |> List.filter (fun (i, _) -> not (List.mem i dark))
  in
  Prospector.Exec.take_prefix k alive

let crashed_subtree_goes_dark =
  QCheck.Test.make
    ~name:"permanent crash: subtree reported dark, answer covers the rest"
    ~count:n_seeds
    (QCheck.make ~print:string_of_int QCheck.Gen.(0 -- 100_000))
    (fun seed ->
      let rng = Rng.create (seed + 85) in
      let n = 3 + Rng.int rng 15 in
      let k = 1 + Rng.int rng 4 in
      let topo = random_tree rng n in
      let readings = random_readings rng n in
      let dead = 1 + Rng.int rng (n - 1) in
      let fault =
        Simnet.Fault.with_crashes (Simnet.Fault.none ~n)
          [ (dead, 0., infinity) ]
      in
      let plan = full_plan topo ~k in
      let r =
        Prospector.Simnet_exec.collect topo mica
          ~fault:(fault, Rng.create (seed + 13))
          plan ~k ~readings
      in
      let expected_dark =
        List.sort_uniq compare (Sensor.Topology.descendants topo dead)
      in
      r.Prospector.Simnet_exec.dark = expected_dark
      && ids r.Prospector.Simnet_exec.returned
         = ids (alive_top_k topo readings ~k ~dead))

let exact_protocol_survives_crash =
  QCheck.Test.make
    ~name:"exact protocol under a permanent crash: top k of reachable nodes"
    ~count:n_seeds
    (QCheck.make ~print:string_of_int QCheck.Gen.(0 -- 100_000))
    (fun seed ->
      let rng = Rng.create (seed + 86) in
      let n = 3 + Rng.int rng 15 in
      let k = 1 + Rng.int rng 4 in
      let topo = random_tree rng n in
      let readings = random_readings rng n in
      let dead = 1 + Rng.int rng (n - 1) in
      let fault =
        Simnet.Fault.with_crashes (Simnet.Fault.none ~n)
          [ (dead, 0., infinity) ]
      in
      let pplan = Prospector.Proof_exec.min_bandwidth_plan topo in
      let r =
        Prospector.Simnet_protocols.exact topo mica
          ~fault:(fault, Rng.create (seed + 15))
          pplan ~k ~readings ()
      in
      r.Prospector.Simnet_protocols.dark
      = List.sort_uniq compare (Sensor.Topology.descendants topo dead)
      && ids r.Prospector.Simnet_protocols.answer
         = ids (alive_top_k topo readings ~k ~dead))

(* A node that crashes once phase 1 is over misses the mop-up's range
   request.  Its ancestors already hold its phase-1 values, so the answer
   may still be exact; if it is not, the crashed subtree must be reported
   dark — never a silent wrong answer.  The crash lands at, and just
   after, the moment a loss-free phase 1 completes. *)
let exact_protocol_crash_after_phase1 =
  QCheck.Test.make
    ~name:"exact protocol, crash as phase 1 completes: exact answer or dark"
    ~count:n_seeds
    (QCheck.make ~print:string_of_int QCheck.Gen.(0 -- 100_000))
    (fun seed ->
      let rng = Rng.create (seed + 89) in
      let n = 3 + Rng.int rng 15 in
      let k = 1 + Rng.int rng 4 in
      let topo = random_tree rng n in
      let readings = random_readings rng n in
      let pplan = Prospector.Proof_exec.min_bandwidth_plan topo in
      let truth = ids (Prospector.Exec.true_top_k ~k readings) in
      let phase1_s =
        (Prospector.Simnet_protocols.proof_collect topo mica
           ~fault:(Simnet.Fault.none ~n, Rng.create (seed + 21))
           pplan ~k ~readings ())
          .Prospector.Simnet_protocols.base
          .Prospector.Simnet_protocols.latency_s
      in
      List.for_all
        (fun dead ->
          List.for_all
            (fun factor ->
              let fault =
                Simnet.Fault.with_crashes (Simnet.Fault.none ~n)
                  [ (dead, phase1_s *. factor, infinity) ]
              in
              let r =
                Prospector.Simnet_protocols.exact topo mica
                  ~fault:(fault, Rng.create (seed + 21))
                  pplan ~k ~readings ()
              in
              ids r.Prospector.Simnet_protocols.answer = truth
              || List.for_all
                   (fun d -> List.mem d r.Prospector.Simnet_protocols.dark)
                   (Sensor.Topology.descendants topo dead))
            [ 1.0; 1.01; 1.05; 1.2 ])
        (List.init (n - 1) (fun i -> i + 1)))

let transient_crash_recovers =
  QCheck.Test.make
    ~name:"transient crash: retries outlast the outage, nothing goes dark"
    ~count:n_seeds
    (QCheck.make ~print:string_of_int QCheck.Gen.(0 -- 100_000))
    (fun seed ->
      let rng = Rng.create (seed + 87) in
      let n = 3 + Rng.int rng 15 in
      let k = 1 + Rng.int rng 4 in
      let topo = random_tree rng n in
      let cost = Sensor.Cost.of_mica2 topo mica in
      let readings = random_readings rng n in
      let down = 1 + Rng.int rng (n - 1) in
      (* A half-second outage sits well inside the ~12 s worst-case retry
         schedule, so the collection must come back complete. *)
      let fault =
        Simnet.Fault.with_crashes (Simnet.Fault.none ~n)
          [ (down, 0., 0.5) ]
      in
      let plan = full_plan topo ~k in
      let clean = Prospector.Simnet_exec.collect topo mica plan ~k ~readings in
      let r =
        Prospector.Simnet_exec.collect topo mica
          ~fault:(fault, Rng.create (seed + 17))
          plan ~k ~readings
      in
      ignore cost;
      r.Prospector.Simnet_exec.dark = []
      && ids r.Prospector.Simnet_exec.returned
         = ids clean.Prospector.Simnet_exec.returned
      && r.Prospector.Simnet_exec.total_mj
         >= clean.Prospector.Simnet_exec.total_mj -. 1e-9)

(* All three fault classes stacked on one run: a permanent crash riding on
   burst windows over Bernoulli drops.  The recoverable layers must stay
   invisible (dark is exactly the crashed closure, the answer is the top k
   of the survivors) and the whole composite must be deterministic per
   seed — including the give-up ledger the self-healing layer feeds on. *)
let combined_faults_compose =
  QCheck.Test.make
    ~name:
      "crash + burst + bernoulli: dark is exactly the crashed closure, \
       deterministic, give-ups accounted" ~count:n_seeds
    (QCheck.make ~print:string_of_int QCheck.Gen.(0 -- 100_000))
    (fun seed ->
      let rng = Rng.create (seed + 88) in
      let n = 3 + Rng.int rng 15 in
      let k = 1 + Rng.int rng 4 in
      let topo = random_tree rng n in
      let readings = random_readings rng n in
      let dead = 1 + Rng.int rng (n - 1) in
      let fault =
        Simnet.Fault.with_crashes
          (Simnet.Fault.with_burst
             (Simnet.Fault.bernoulli ~n ~drop:0.05)
             ~mean_length:0.02)
          [ (dead, 0., infinity) ]
      in
      let plan = full_plan topo ~k in
      let run () =
        Prospector.Simnet_exec.collect topo mica
          ~fault:(fault, Rng.create (seed + 19))
          plan ~k ~readings
      in
      let a = run () and b = run () in
      let expected_dark =
        List.sort_uniq compare (Sensor.Topology.descendants topo dead)
      in
      a.Prospector.Simnet_exec.dark = expected_dark
      && ids a.Prospector.Simnet_exec.returned
         = ids (alive_top_k topo readings ~k ~dead)
      (* One frame per directed link per collection, so the engine's
         give-up counter and the executor's timestamped ledger agree. *)
      && a.Prospector.Simnet_exec.gave_up_frames
         = List.length a.Prospector.Simnet_exec.give_ups
      && List.for_all
           (fun (dst, at) -> List.mem dst expected_dark && at > 0.)
           a.Prospector.Simnet_exec.give_ups
      (* Bit-identical re-run, loss bookkeeping included. *)
      && a.Prospector.Simnet_exec.returned = b.Prospector.Simnet_exec.returned
      && a.Prospector.Simnet_exec.total_mj = b.Prospector.Simnet_exec.total_mj
      && a.Prospector.Simnet_exec.per_node_mj
         = b.Prospector.Simnet_exec.per_node_mj
      && a.Prospector.Simnet_exec.retransmissions
         = b.Prospector.Simnet_exec.retransmissions
      && a.Prospector.Simnet_exec.dark = b.Prospector.Simnet_exec.dark
      && a.Prospector.Simnet_exec.give_ups = b.Prospector.Simnet_exec.give_ups)

(* A pinned generator state: the sampled inputs are arbitrary but fixed,
   so the suite is reproducible run to run. *)
let qcheck_cases =
  List.map
    (fun t ->
      QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x10557 |]) t)
    [
      recoverable_loss_is_invisible;
      lossless_reliable_equals_legacy;
      same_seed_is_bit_identical;
      burst_loss_recovers;
      crashed_subtree_goes_dark;
      exact_protocol_survives_crash;
      exact_protocol_crash_after_phase1;
      transient_crash_recovers;
      combined_faults_compose;
    ]

let () = Alcotest.run "lossy" [ ("properties", qcheck_cases) ]
