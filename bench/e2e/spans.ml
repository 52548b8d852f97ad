type span = {
  id : int;
  parent : int;
  op : int;
  kind : Obs.Trace.kind;
  name : string;
  start_s : float;
  dur_s : float;
}

type t = {
  on : bool;
  mutable rev : span list;
  mutable next_id : int;
  mutable next_op : int;
  mutable current_op : int;
  mutable open_ids : int list;
}

let create ~enabled =
  {
    on = enabled;
    rev = [];
    next_id = 1;
    next_op = 1;
    current_op = 0;
    open_ids = [];
  }

let enabled t = t.on

let record t kind name f =
  let id = t.next_id in
  t.next_id <- id + 1;
  let parent = match t.open_ids with p :: _ -> p | [] -> 0 in
  t.open_ids <- id :: t.open_ids;
  let close start_s =
    let dur_s = Unix.gettimeofday () -. start_s in
    t.open_ids <- (match t.open_ids with _ :: rest -> rest | [] -> []);
    t.rev <- { id; parent; op = t.current_op; kind; name; start_s; dur_s } :: t.rev
  in
  let start_s = Unix.gettimeofday () in
  match f () with
  | v ->
      close start_s;
      v
  | exception e ->
      close start_s;
      raise e

let span t kind name f = if not t.on then f () else record t kind name f

let op t kind name f =
  if not t.on then f ()
  else begin
    t.current_op <- t.next_op;
    t.next_op <- t.next_op + 1;
    record t kind name f
  end

let last_op t = t.current_op

let by_id a b = Int.compare a.id b.id

let spans t = List.sort by_id t.rev

(* Length of the union of [intervals], each clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max lo a and b = Float.min hi b in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort (fun (a, _) (b, _) -> Float.compare a b)
  in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) ->
            if a <= cb then (total, Some (ca, Float.max cb b))
            else (total +. (cb -. ca), Some (a, b)))
      (0., None) clipped
  in
  match last with None -> total | Some (a, b) -> total +. (b -. a)

let self_times spans =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent > 0 then
        let prev = Option.value (Hashtbl.find_opt children s.parent) ~default:[] in
        Hashtbl.replace children s.parent ((s.start_s, s.start_s +. s.dur_s) :: prev))
    spans;
  List.map
    (fun s ->
      let kids = Option.value (Hashtbl.find_opt children s.id) ~default:[] in
      (s, s.dur_s -. covered ~lo:s.start_s ~hi:(s.start_s +. s.dur_s) kids))
    spans

let self_by_name spans =
  let acc = Hashtbl.create 16 in
  List.iter
    (fun (s, self) ->
      let total = Option.value (Hashtbl.find_opt acc s.name) ~default:0. in
      Hashtbl.replace acc s.name (total +. self))
    (self_times spans);
  Hashtbl.fold (fun name total l -> (name, total) :: l) acc []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let unattributed ~total ~parts =
  if not (total > 0.) then invalid_arg "Spans.unattributed: total must be positive";
  1. -. (parts /. total)

let to_events spans =
  List.map
    (fun s ->
      {
        Obs.Trace.kind = s.kind;
        name = s.name;
        start_s = s.start_s;
        dur_s = s.dur_s;
        attrs =
          [
            ("span_id", Obs.Trace.Int s.id);
            ("parent_id", Obs.Trace.Int s.parent);
            ("op_id", Obs.Trace.Int s.op);
          ];
      })
    spans

let write_jsonl path spans = Obs.Trace.to_file path (to_events spans)
