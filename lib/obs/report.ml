(* Per-run aggregation of a trace: one row per (kind, name) with counts,
   wall-clock totals and the sums of every numeric attribute, plus a
   duration histogram per kind so percentiles survive aggregation. *)

type row = {
  kind : Trace.kind;
  name : string;
  count : int;
  total_dur_s : float;
  max_dur_s : float;
  attr_sums : (string * float) list; (* numeric attrs only, summed *)
}

type t = { rows : row list; dur_hists : (Trace.kind * Metrics.histogram) list }

let of_events evs =
  let tbl : (Trace.kind * string, row) Hashtbl.t = Hashtbl.create 16 in
  let hists : (Trace.kind, Metrics.histogram) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (e : Trace.event) ->
      let key = (e.Trace.kind, e.Trace.name) in
      let row =
        match Hashtbl.find_opt tbl key with
        | Some r -> r
        | None ->
            {
              kind = e.Trace.kind;
              name = e.Trace.name;
              count = 0;
              total_dur_s = 0.;
              max_dur_s = 0.;
              attr_sums = [];
            }
      in
      let attr_sums =
        List.fold_left
          (fun sums (k, _) ->
            match Trace.number e k with
            | None -> sums
            | Some x ->
                let prev = Option.value ~default:0. (List.assoc_opt k sums) in
                (k, prev +. x) :: List.remove_assoc k sums)
          row.attr_sums e.Trace.attrs
      in
      Hashtbl.replace tbl key
        {
          row with
          count = row.count + 1;
          total_dur_s = row.total_dur_s +. e.Trace.dur_s;
          max_dur_s = Float.max row.max_dur_s e.Trace.dur_s;
          attr_sums;
        };
      let h =
        match Hashtbl.find_opt hists e.Trace.kind with
        | Some h -> h
        | None ->
            let h =
              Metrics.local_histogram
                (Printf.sprintf "report.%s.dur_s"
                   (Trace.kind_to_string e.Trace.kind))
            in
            Hashtbl.replace hists e.Trace.kind h;
            h
      in
      if e.Trace.dur_s > 0. then Metrics.observe h e.Trace.dur_s)
    evs;
  (* Canonical order everywhere downstream (pp, the JSONL exporter, the
     benchmark ledger): rows by (kind, name), attr totals by key,
     histograms by kind — never hash-table order. *)
  let rows =
    Hashtbl.fold (fun _ r acc -> r :: acc) tbl []
    |> List.sort (fun a b ->
           match Trace.compare_kind a.kind b.kind with
           | 0 -> String.compare a.name b.name
           | c -> c)
    |> List.map (fun r ->
           {
             r with
             attr_sums =
               List.sort
                 (fun (a, _) (b, _) -> String.compare a b)
                 r.attr_sums;
           })
  in
  let dur_hists =
    Hashtbl.fold (fun k h acc -> (k, h) :: acc) hists []
    |> List.sort (fun (a, _) (b, _) -> Trace.compare_kind a b)
  in
  { rows; dur_hists }

let rows t = t.rows

let duration_histogram t kind = List.assoc_opt kind t.dur_hists

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  Format.fprintf ppf "%-10s %-24s %8s %12s %12s@," "kind" "name" "count"
    "total_ms" "max_ms";
  List.iter
    (fun r ->
      Format.fprintf ppf "%-10s %-24s %8d %12.3f %12.3f@,"
        (Trace.kind_to_string r.kind)
        r.name r.count
        (1000. *. r.total_dur_s)
        (1000. *. r.max_dur_s))
    t.rows;
  List.iter
    (fun (k, h) ->
      if Metrics.hist_count h > 0 then
        Format.fprintf ppf
          "%s durations: n=%d p50=%.3fms p90=%.3fms p99=%.3fms max=%.3fms@,"
          (Trace.kind_to_string k) (Metrics.hist_count h)
          (1000. *. Metrics.percentile h 50.)
          (1000. *. Metrics.percentile h 90.)
          (1000. *. Metrics.percentile h 99.)
          (1000. *. Metrics.hist_max h))
    t.dur_hists;
  List.iter
    (fun r ->
      if r.attr_sums <> [] then begin
        Format.fprintf ppf "%s/%s attr totals:"
          (Trace.kind_to_string r.kind)
          r.name;
        List.iter
          (fun (k, v) -> Format.fprintf ppf " %s=%s" k (Json.number_to_string v))
          r.attr_sums;
        Format.fprintf ppf "@,"
      end)
    t.rows;
  Format.fprintf ppf "@]"
