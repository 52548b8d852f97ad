(* Unit tests for the lib/obs telemetry stack: gating semantics of the
   metrics registry, histogram percentile/merge math, trace round-trips
   through the JSON-lines exporter, and an end-to-end check that a lossy
   simnet run's trace agrees with the engine's own energy ledger. *)

let cleanup () =
  Obs.Metrics.set_enabled false;
  Obs.Metrics.reset ();
  Obs.Trace.install None

let with_clean f () = Fun.protect ~finally:cleanup f

(* ---- metrics ---- *)

let test_gated_counter () =
  let c = Obs.Metrics.counter "test.gated" in
  Obs.Metrics.incr c;
  Alcotest.(check int) "disabled incr is a no-op" 0 (Obs.Metrics.value c);
  Obs.Metrics.set_enabled true;
  Obs.Metrics.incr c;
  Obs.Metrics.add c 4;
  Alcotest.(check int) "enabled counts" 5 (Obs.Metrics.value c);
  let c' = Obs.Metrics.counter "test.gated" in
  Alcotest.(check int) "interned by name" 5 (Obs.Metrics.value c');
  Obs.Metrics.reset ();
  Alcotest.(check int) "reset zeroes" 0 (Obs.Metrics.value c)

let test_local_counter () =
  let c = Obs.Metrics.local "test.local" in
  Obs.Metrics.incr c;
  Obs.Metrics.incr c;
  Alcotest.(check int) "local counts while disabled" 2 (Obs.Metrics.value c);
  let c' = Obs.Metrics.local "test.local" in
  Alcotest.(check int) "local counters are fresh, not interned" 0
    (Obs.Metrics.value c');
  Obs.Metrics.set_enabled true;
  Obs.Metrics.reset ();
  Alcotest.(check int) "registry reset leaves locals alone" 2
    (Obs.Metrics.value c)

let test_histogram_single () =
  Obs.Metrics.set_enabled true;
  let h = Obs.Metrics.histogram "test.hist.single" in
  Obs.Metrics.observe h 0.0042;
  Alcotest.(check int) "count" 1 (Obs.Metrics.hist_count h);
  (* Clamping to the observed extremes makes one sample exact at every
     percentile, not just somewhere inside its log bucket. *)
  List.iter
    (fun p ->
      Alcotest.(check (float 1e-12))
        (Printf.sprintf "p%g exact" p)
        0.0042
        (Obs.Metrics.percentile h p))
    [ 0.; 50.; 99.; 100. ]

let test_histogram_boundaries () =
  Obs.Metrics.set_enabled true;
  let h = Obs.Metrics.histogram "test.hist.bounds" in
  List.iter (Obs.Metrics.observe h) [ 1.0; 2.0; 4.0; 8.0 ];
  (* Estimates interpolate geometrically inside the owning log bucket
     (one 8th of a decade wide) and are clamped to the observed extremes,
     so each percentile must land in its sample's bucket. *)
  let decade = 10. ** (1. /. float_of_int Obs.Metrics.buckets_per_decade) in
  let in_bucket name p sample =
    let v = Obs.Metrics.percentile h p in
    Alcotest.(check bool)
      (Printf.sprintf "%s=%g within [%g, %g]" name v (sample /. decade)
         (sample *. decade))
      true
      (v >= sample /. decade && v <= sample *. decade)
  in
  in_bucket "p0" 0. 1.0;
  in_bucket "p50" 50. 2.0;
  in_bucket "p100" 100. 8.0;
  Alcotest.(check (float 1e-12))
    "p100 clamps at the observed max" 8.0
    (Float.max 8.0 (Obs.Metrics.percentile h 100.));
  Alcotest.(check bool) "percentiles are monotone" true
    (Obs.Metrics.percentile h 0. <= Obs.Metrics.percentile h 50.
    && Obs.Metrics.percentile h 50. <= Obs.Metrics.percentile h 100.)

let test_histogram_merge () =
  Obs.Metrics.set_enabled true;
  let a = Obs.Metrics.histogram "test.hist.merge.a" in
  let b = Obs.Metrics.histogram "test.hist.merge.b" in
  let all = Obs.Metrics.histogram "test.hist.merge.all" in
  let xs = [ 0.001; 0.01; 0.02 ] and ys = [ 0.5; 3.0; 40.0; 41.0 ] in
  List.iter (Obs.Metrics.observe a) xs;
  List.iter (Obs.Metrics.observe b) ys;
  List.iter (Obs.Metrics.observe all) (xs @ ys);
  Obs.Metrics.merge_into ~into:a b;
  Alcotest.(check int)
    "merged count" (List.length xs + List.length ys)
    (Obs.Metrics.hist_count a);
  Alcotest.(check (float 1e-12)) "merged min" 0.001 (Obs.Metrics.hist_min a);
  Alcotest.(check (float 1e-12)) "merged max" 41.0 (Obs.Metrics.hist_max a);
  Alcotest.(check (float 1e-9))
    "merged sum"
    (Obs.Metrics.hist_sum all)
    (Obs.Metrics.hist_sum a);
  (* The shared bucket layout makes merge equivalent to observing the
     union: every percentile must agree exactly. *)
  List.iter
    (fun p ->
      Alcotest.(check (float 1e-12))
        (Printf.sprintf "merged p%g = union p%g" p p)
        (Obs.Metrics.percentile all p)
        (Obs.Metrics.percentile a p))
    [ 0.; 25.; 50.; 75.; 90.; 99.; 100. ]

let test_disabled_noop () =
  let h = Obs.Metrics.histogram "test.hist.disabled" in
  Obs.Metrics.observe h 1.0;
  Alcotest.(check int) "registered histogram gated off" 0
    (Obs.Metrics.hist_count h);
  let lh = Obs.Metrics.local_histogram "test.hist.local" in
  Obs.Metrics.observe lh 1.0;
  Alcotest.(check int) "local histogram records anyway" 1
    (Obs.Metrics.hist_count lh);
  let t = Obs.Metrics.timer "test.timer.disabled" in
  let r = Obs.Metrics.time t (fun () -> 42) in
  Alcotest.(check int) "timed thunk still runs" 42 r;
  Alcotest.(check int) "disabled timer records nothing" 0
    (Obs.Metrics.hist_count (Obs.Metrics.timer_histogram t));
  Obs.Metrics.set_enabled true;
  ignore (Obs.Metrics.time t (fun () -> ()));
  Alcotest.(check int) "enabled timer records" 1
    (Obs.Metrics.hist_count (Obs.Metrics.timer_histogram t))

(* ---- trace ---- *)

let sample_events =
  [
    {
      Obs.Trace.kind = Obs.Trace.Solve;
      name = "lp.revised";
      start_s = 100.5;
      dur_s = 0.25;
      attrs =
        [
          ("iterations", Obs.Trace.Int 42);
          ("status", Obs.Trace.Str "optimal");
          ("warm", Obs.Trace.Bool false);
          ("gap", Obs.Trace.Float 1.5e-9);
        ];
    };
    {
      Obs.Trace.kind = Obs.Trace.Retransmit;
      name = "simnet.engine";
      start_s = 0.;
      dur_s = 0.;
      attrs = [ ("src", Obs.Trace.Int 3); ("dst", Obs.Trace.Int 1) ];
    };
  ]

let test_emit_requires_sink () =
  Obs.Trace.emit Obs.Trace.Plan ~name:"nowhere" [];
  let sink = Obs.Trace.create () in
  Obs.Trace.install (Some sink);
  Obs.Trace.emit Obs.Trace.Plan ~name:"p1" [];
  Obs.Trace.emit Obs.Trace.Epoch ~name:"e1" [];
  Alcotest.(check int) "both events captured" 2 (Obs.Trace.length sink);
  Alcotest.(check (list string))
    "in emission order" [ "p1"; "e1" ]
    (List.map (fun e -> e.Obs.Trace.name) (Obs.Trace.events sink))

let test_jsonl_roundtrip () =
  let path = Filename.temp_file "obs_test" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Obs.Trace.to_file path sample_events;
      match Obs.Trace.read_jsonl path with
      | Error msg -> Alcotest.failf "read_jsonl: %s" msg
      | Ok events ->
          Alcotest.(check int) "event count" 2 (List.length events);
          let e = List.hd events in
          Alcotest.(check bool) "kind" true (e.Obs.Trace.kind = Obs.Trace.Solve);
          Alcotest.(check string) "name" "lp.revised" e.Obs.Trace.name;
          Alcotest.(check (float 1e-12)) "start_s" 100.5 e.Obs.Trace.start_s;
          Alcotest.(check (float 1e-12)) "dur_s" 0.25 e.Obs.Trace.dur_s;
          Alcotest.(check (option (float 1e-12)))
            "int attr via number" (Some 42.)
            (Obs.Trace.number e "iterations");
          Alcotest.(check (option (float 1e-18)))
            "float attr survives" (Some 1.5e-9) (Obs.Trace.number e "gap");
          Alcotest.(check bool)
            "string attr" true
            (Obs.Trace.find_attr e "status" = Some (Obs.Trace.Str "optimal"));
          Alcotest.(check bool)
            "bool attr" true
            (Obs.Trace.find_attr e "warm" = Some (Obs.Trace.Bool false)))

(* ---- end to end: simnet trace vs engine ledger ---- *)

let test_simnet_roundtrip () =
  Obs.Metrics.set_enabled true;
  let sink = Obs.Trace.create () in
  Obs.Trace.install (Some sink);
  let n = 20 and k = 4 in
  let s =
    Experiments.Setup.uniform_gaussian ~seed:7 ~n ~k ~n_samples:4 ~n_test:3 ()
  in
  let plan =
    Prospector.Plan.make s.Experiments.Setup.topo
      (Array.mapi
         (fun i size ->
           if i = s.Experiments.Setup.topo.Sensor.Topology.root then 0
           else Int.min size k)
         s.Experiments.Setup.topo.Sensor.Topology.subtree_size)
  in
  let fault = Simnet.Fault.bernoulli ~n ~drop:0.15 in
  let rng = Rng.create 99 in
  let engine_mj, engine_retrans =
    Array.fold_left
      (fun (mj, rt) readings ->
        let r =
          Prospector.Simnet_exec.collect s.Experiments.Setup.topo
            s.Experiments.Setup.mica ~fault:(fault, rng) plan ~k ~readings
        in
        ( mj +. r.Prospector.Simnet_exec.total_mj,
          rt + r.Prospector.Simnet_exec.retransmissions ))
      (0., 0) s.Experiments.Setup.test_epochs
  in
  (* Round-trip the whole trace through the JSONL exporter before reading
     the epoch spans back out. *)
  let path = Filename.temp_file "obs_simnet" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Obs.Trace.to_file path (Obs.Trace.events sink);
      match Obs.Trace.read_jsonl path with
      | Error msg -> Alcotest.failf "read_jsonl: %s" msg
      | Ok events ->
          let epochs =
            List.filter (fun e -> e.Obs.Trace.kind = Obs.Trace.Epoch) events
          in
          Alcotest.(check int) "one epoch span per collect" 3
            (List.length epochs);
          let num key e =
            Option.value ~default:0. (Obs.Trace.number e key)
          in
          let total key =
            List.fold_left (fun acc e -> acc +. num key e) 0. epochs
          in
          Alcotest.(check (float 1e-6))
            "trace energy equals the engine ledger" engine_mj
            (total "energy_mj");
          Alcotest.(check (float 0.))
            "trace retransmissions match" (float_of_int engine_retrans)
            (total "retransmissions"))

let () =
  Alcotest.run "obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "gated counter" `Quick
            (with_clean test_gated_counter);
          Alcotest.test_case "local counter" `Quick
            (with_clean test_local_counter);
          Alcotest.test_case "single-sample histogram" `Quick
            (with_clean test_histogram_single);
          Alcotest.test_case "bucket boundaries" `Quick
            (with_clean test_histogram_boundaries);
          Alcotest.test_case "merge semantics" `Quick
            (with_clean test_histogram_merge);
          Alcotest.test_case "disabled mode is a no-op" `Quick
            (with_clean test_disabled_noop);
        ] );
      ( "trace",
        [
          Alcotest.test_case "emit requires a sink" `Quick
            (with_clean test_emit_requires_sink);
          Alcotest.test_case "jsonl round trip" `Quick
            (with_clean test_jsonl_roundtrip);
        ] );
      ( "simnet",
        [
          Alcotest.test_case "trace agrees with engine ledger" `Quick
            (with_clean test_simnet_roundtrip);
        ] );
    ]
