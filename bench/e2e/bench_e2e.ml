(* The end-to-end benchmark.

   usage: bench_e2e [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
                    [--trace-out FILE] [--repeat N] [--smoke] [--benchmark FILE]

   Runs each named workload (all four by default) in one process, checks
   its outputs, prints every metric with its unit and sample count, and
   ends with one JSON line: {"correct", "attempted", "failed", "metrics"}.
   With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json;
   with --trace 1 they are its per-layer ones, from a run that times the
   calls into each layer from outside (a layer a workload does not use
   reads 0).  BENCHMARK.json is the catalogue of names and units; a
   metric missing from it, or a unit that disagrees, fails the run.
   Exit status: 0 all checks passed, 1 a check failed, 2 usage error. *)

open Common

type workload = {
  wname : string;
  untraced : ctx -> result;
  traced : ctx -> result;
}

let workload name ~setup ~measure ~layers =
  {
    wname = name;
    untraced = (fun ctx -> run_untraced ctx ~setup ~measure);
    traced = (fun ctx -> run_traced ctx ~setup ~measure ~layers);
  }

let workloads =
  [
    workload Plan_cold.name ~setup:Plan_cold.setup ~measure:Plan_cold.measure
      ~layers:Plan_cold.layers;
    workload Serve_mixed.name ~setup:Serve_mixed.setup ~measure:Serve_mixed.measure
      ~layers:Serve_mixed.layers;
    workload Churn_repair.name ~setup:Churn_repair.setup ~measure:Churn_repair.measure
      ~layers:Churn_repair.layers;
    workload Exec_lossy.name ~setup:Exec_lossy.setup ~measure:Exec_lossy.measure
      ~layers:Exec_lossy.layers;
  ]

(* ---- the catalogue: BENCHMARK.json ---- *)

type entry = { e_name : string; e_unit : string; bound : float option }

type catalogue = { end_to_end : entry list; per_layer : entry list }

let read_catalogue path =
  let ( let* ) = Option.bind in
  let entries j key =
    let* l = Option.bind (Obs.Json.member key j) Obs.Json.to_list in
    Some
      (List.filter_map
         (fun e ->
           let* e_name = Option.bind (Obs.Json.member "name" e) Obs.Json.to_str in
           let* e_unit = Option.bind (Obs.Json.member "unit" e) Obs.Json.to_str in
           Some { e_name; e_unit; bound = Option.bind (Obs.Json.member "bound" e) Obs.Json.to_num })
         l)
  in
  match Obs.Json.of_file path with
  | Error msg -> Error msg
  | Ok j -> (
      match (entries j "end_to_end", entries j "per_layer") with
      | Some end_to_end, Some per_layer -> Ok { end_to_end; per_layer }
      | _ -> Error "no end_to_end or per_layer list")

(* The metrics a mode prints: the catalogue's list in its order, each
   from the run (or an exact 0 for a per-layer metric the workload does
   not produce).  A produced metric the catalogue lacks, or a unit mismatch,
   is a failed check. *)
let select ~workload ~entries ~fill_missing (r : result) =
  List.iter
    (fun m ->
      match List.find_opt (fun e -> String.equal e.e_name m.name) entries with
      | None -> fail "%s: metric %s is not in BENCHMARK.json" workload m.name
      | Some e ->
          if not (String.equal e.e_unit m.unit_) then
            fail "%s: metric %s has unit %s, BENCHMARK.json says %s" workload m.name m.unit_ e.e_unit)
    r.metrics;
  List.map
    (fun e ->
      match List.find_opt (fun m -> String.equal m.name e.e_name) r.metrics with
      | Some m -> m
      | None ->
          if not fill_missing then fail "%s: end-to-end metric %s was not measured" workload e.e_name;
          metric ~exact:true e.e_name e.e_unit 0.)
    entries

let print_metrics workload metrics =
  List.iter
    (fun m ->
      let samples = if m.n_samples > 0 then Printf.sprintf "  (n=%d)" m.n_samples else "" in
      let samples =
        match m.tail with
        | Some (p, v) -> Printf.sprintf "%s  p%g %s %s" samples p (Obs.Json.number_to_string v) m.unit_
        | None -> samples
      in
      Printf.printf "%-13s %-36s %16s %s%s\n" workload m.name
        (Obs.Json.number_to_string m.value) m.unit_ samples)
    metrics

let json_metrics metrics =
  Obs.Json.Obj
    (List.map
       (fun m -> (m.name, Obs.Json.Obj [ ("value", Obs.Json.Num m.value); ("unit", Obs.Json.Str m.unit_) ]))
       metrics)

(* ---- command line ---- *)

let usage () =
  prerr_endline
    "usage: bench_e2e [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]\n\
    \                 [--trace-out FILE] [--repeat N] [--smoke] [--benchmark FILE]\n\
     workloads: plan-cold serve-mixed churn-repair exec-lossy";
  exit 2

type opts = {
  mutable names : string list;
  mutable seed : int;
  mutable seconds : float;
  mutable trace : bool;
  mutable trace_out : string option;
  mutable repeat : int;
  mutable smoke : bool;
  mutable benchmark : string;
}

let parse () =
  let o =
    {
      names = [];
      seed = 20060403;
      seconds = 28.;
      trace = false;
      trace_out = None;
      repeat = 0;
      smoke = false;
      benchmark = "BENCHMARK.json";
    }
  in
  let int_arg s = match int_of_string_opt s with Some v -> v | None -> usage () in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest ->
        if not (List.exists (fun w -> String.equal w.wname v) workloads) then usage ();
        o.names <- o.names @ [ v ];
        go rest
    | "--seed" :: v :: rest ->
        o.seed <- int_arg v;
        go rest
    | "--seconds" :: v :: rest ->
        (match float_of_string_opt v with Some s when s > 0. -> o.seconds <- s | _ -> usage ());
        go rest
    | "--trace" :: v :: rest ->
        (match v with "0" -> o.trace <- false | "1" -> o.trace <- true | _ -> usage ());
        go rest
    | "--trace-out" :: v :: rest ->
        o.trace_out <- Some v;
        go rest
    | "--repeat" :: v :: rest ->
        o.repeat <- int_arg v;
        if o.repeat < 1 then usage ();
        go rest
    | "--smoke" :: rest ->
        o.smoke <- true;
        go rest
    | "--benchmark" :: v :: rest ->
        o.benchmark <- v;
        go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  o

let selected o =
  match o.names with
  | [] -> workloads
  | names -> List.filter (fun w -> List.exists (String.equal w.wname) names) workloads

(* One run of one workload in one mode, its metrics selected against the
   catalogue. *)
let run_one cat ctx ~trace w =
  let r = if trace then w.traced ctx else w.untraced ctx in
  let entries = if trace then cat.per_layer else cat.end_to_end in
  (r, select ~workload:w.wname ~entries ~fill_missing:trace r)

let write_trace path events =
  match path with None -> () | Some p -> Spans.write_jsonl p events

(* ---- --repeat: the run-to-run agreement gate ---- *)

let repeat o cat =
  let ws = selected o in
  let ctx = { seed = o.seed; seconds = o.seconds; smoke = o.smoke } in
  let samples = Hashtbl.create 64 in
  for i = 1 to o.repeat do
    let order = if i mod 2 = 0 then List.rev ws else ws in
    List.iter
      (fun w ->
        let _, ms = run_one cat ctx ~trace:o.trace w in
        print_metrics w.wname ms;
        List.iter
          (fun m ->
            let key = (w.wname, m.name) in
            let prev = Option.value (Hashtbl.find_opt samples key) ~default:[] in
            Hashtbl.replace samples key (m :: prev))
          ms;
        Printf.printf "repeat %d/%d: %s done\n%!" i o.repeat w.wname)
      order
  done;
  let entries = if o.trace then cat.per_layer else cat.end_to_end in
  let ok = ref true in
  Printf.printf "%-13s %-36s %16s %9s %9s  %s\n" "workload" "metric" "median" "spread" "iqr/med" "verdict";
  List.iter
    (fun w ->
      List.iter
        (fun e ->
          match Hashtbl.find_opt samples (w.wname, e.e_name) with
          | None -> ()
          | Some ms ->
              let v = Array.of_list (List.map (fun m -> m.value) ms) in
              let s = Stats.spread v in
              let verdict, pass =
                if (List.hd ms).exact then
                  if Array.for_all (Float.equal v.(0)) v then ("exact", true) else ("EXACT METRIC DIFFERS", false)
                else
                  match e.bound with
                  | Some b when not o.trace ->
                      if s <= b then (Printf.sprintf "<= %g" b, true) else (Printf.sprintf "EXCEEDS %g" b, false)
                  | _ -> ("", true)
              in
              if not pass then ok := false;
              let iqr = if Array.length v >= 2 && Stats.median v <> 0. then Stats.iqr_frac v else 0. in
              Printf.printf "%-13s %-36s %16s %9.4f %9.4f  %s\n" w.wname e.e_name
                (Obs.Json.number_to_string (Stats.median v)) s iqr verdict)
        entries)
    ws;
  let failed = reported_failures () in
  List.iter (fun f -> Printf.printf "CHECK FAILED: %s\n" f) failed;
  if !ok && failed = [] then 0 else 1

(* ---- single runs ---- *)

let run o cat =
  let ws = selected o in
  let ctx = { seed = o.seed; seconds = o.seconds; smoke = o.smoke } in
  let modes = if o.smoke then [ false; true ] else [ o.trace ] in
  let results =
    List.concat_map
      (fun trace ->
        List.map
          (fun w ->
            let r, ms = run_one cat ctx ~trace w in
            print_metrics w.wname ms;
            if trace then
              write_trace
                (Option.map
                   (fun p -> if List.length ws > 1 then Printf.sprintf "%s.%s" p w.wname else p)
                   o.trace_out)
                r.trace_events;
            (w, trace, r, ms))
          ws)
      modes
  in
  (* every catalogue metric must be produced by some workload *)
  if List.length ws = List.length workloads then
    List.iter
      (fun trace ->
        let entries = if trace then cat.per_layer else cat.end_to_end in
        List.iter
          (fun e ->
            if
              not
                (List.exists
                   (fun (_, t, (r : result), _) ->
                     Bool.equal t trace && List.exists (fun m -> String.equal m.name e.e_name) r.metrics)
                   results)
            then fail "BENCHMARK.json lists %s, which no workload produces" e.e_name)
          entries)
      modes;
  let failed_checks = reported_failures () in
  List.iter (fun f -> Printf.printf "CHECK FAILED: %s\n" f) failed_checks;
  let correct = failed_checks = [] in
  let attempted = List.fold_left (fun acc (_, _, (r : result), _) -> acc + r.attempted) 0 results in
  let failed = List.fold_left (fun acc (_, _, (r : result), _) -> acc + r.failed) 0 results in
  let metrics =
    match results with
    | [ (_, _, _, ms) ] -> ms
    | _ ->
        List.concat_map
          (fun (w, _, _, ms) -> List.map (fun m -> { m with name = w.wname ^ "/" ^ m.name }) ms)
          results
  in
  print_endline
    (Obs.Json.to_string
       (Obs.Json.Obj
          [
            ("correct", Obs.Json.Bool correct);
            ("attempted", Obs.Json.Num (float_of_int attempted));
            ("failed", Obs.Json.Num (float_of_int failed));
            ("metrics", json_metrics metrics);
          ]));
  if correct then 0 else 1

let () =
  let o = parse () in
  let o = if o.smoke then { o with seconds = 0.05 } else o in
  match read_catalogue o.benchmark with
  | Error msg ->
      Printf.eprintf "bench_e2e: cannot read %s: %s\n" o.benchmark msg;
      exit 2
  | Ok cat -> exit (if o.repeat > 0 then repeat o cat else run o cat)
