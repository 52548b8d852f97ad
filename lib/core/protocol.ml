type value = int * float

let value_order (i, x) (j, y) =
  match Float.compare y x with 0 -> Int.compare i j | c -> c

let take_prefix n xs =
  let rec go n xs acc =
    match (n, xs) with
    | 0, _ | _, [] -> List.rev acc
    | n, x :: rest -> go (n - 1) rest (x :: acc)
  in
  go n xs []

let check_inputs who topo ~k ~readings =
  if Array.length readings <> topo.Sensor.Topology.n then
    invalid_arg (who ^ ": readings length mismatch");
  if k < 1 then invalid_arg (who ^ ": k must be positive")

let check_every_edge topo plan message =
  for i = 0 to topo.Sensor.Topology.n - 1 do
    if i <> topo.Sensor.Topology.root && Plan.bandwidth plan i < 1 then
      invalid_arg message
  done

(* ---- messages ---- *)

type report = { values : value list; proven : int; sent_all : bool }
type request = { c : int; lo : value option; hi : value option }

type msg =
  | Trigger
  | Report of report
  | Pull
  | Pulled of value option
  | Range of request
  | Ranged of value list

let values_carried = function
  | Trigger | Pull | Pulled None | Range _ -> 0
  | Pulled (Some _) -> 1
  | Report { values; _ } | Ranged values -> List.length values

let payload_bytes mica msg =
  let bpv = mica.Sensor.Mica2.bytes_per_value in
  match msg with
  | Range _ -> (2 * bpv) + 2
  | msg -> values_carried msg * bpv

let silence = function
  | Trigger -> Some (Report { values = []; proven = 0; sent_all = false })
  | Pull -> Some (Pulled None)
  | Range _ -> Some (Ranged [])
  | Report _ | Pulled _ | Ranged _ -> None

(* ---- approximate collection ---- *)

let filter ~own ~received ~cap =
  take_prefix cap (List.sort value_order (own :: received))

(* ---- proof-carrying collection ---- *)

type kept = {
  retrieved : value list;
  sent : value list;
  proven : value list;
  sent_all : bool;
}

let prove ~own ~reports ~cap ~subtree_size =
  (* Tag every value with the child it came from and whether that child
     proved it; the node's own reading has no child to answer for. *)
  let pool =
    List.concat_map
      (fun (child, (r : report)) ->
        List.mapi (fun rank v -> (v, Some (child, rank < r.proven))) r.values)
      reports
    @ [ (own, None) ]
  in
  let sorted = List.sort (fun (a, _) (b, _) -> value_order a b) pool in
  let sent = take_prefix cap sorted in
  let certified (v, origin) =
    List.for_all
      (fun (child, (r : report)) ->
        (match origin with
        | Some (c, was_proven) when Int.equal c child -> was_proven
        | _ -> false)
        || List.exists
             (fun w -> value_order v w < 0)
             (take_prefix r.proven r.values)
        || r.sent_all)
      reports
  in
  let rec proven_prefix = function
    | ((v, _) as entry) :: rest when certified entry -> v :: proven_prefix rest
    | _ -> []
  in
  let sent_values = List.map fst sent in
  {
    retrieved = List.map fst sorted;
    sent = sent_values;
    proven = proven_prefix sent;
    sent_all = List.length sent_values = subtree_size;
  }

let report_of kept =
  {
    values = kept.sent;
    proven = List.length kept.proven;
    sent_all = kept.sent_all;
  }

(* ---- mop-up ---- *)

let root_request ~k = { c = k; lo = None; hi = None }

let in_range req v =
  (match req.hi with None -> true | Some h -> value_order h v < 0)
  && match req.lo with None -> true | Some l -> value_order v l < 0

let range_empty ~lo ~hi =
  match (lo, hi) with Some l, Some h -> value_order h l >= 0 | _ -> false

(* Origins are unique network-wide, so one copy per origin is the value. *)
let dedup_by_origin values =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun (i, _) ->
      if Hashtbl.mem seen i then false
      else begin
        Hashtbl.replace seen i ();
        true
      end)
    values

(* Sound because every subtree value ranking above the smallest proven
   value is already retrieved (Lemma 1), and the children are asked for
   their top [c] below that threshold, which covers anything the node's
   memory is missing. *)
let mop_up kept req ~children ~finished =
  let proven_in_range = List.filter (in_range req) kept.proven in
  (* With [c] values in range proven, everything above the [c]-th of them
     is known. *)
  if List.length proven_in_range >= req.c then None
  else begin
    let pmin =
      match List.rev kept.proven with [] -> None | last :: _ -> Some last
    in
    let hi =
      match (req.hi, pmin) with
      | None, p -> p
      | h, None -> h
      | Some h, Some p -> if value_order h p < 0 then Some p else Some h
    in
    let lo =
      let known = List.filter (in_range req) kept.retrieved in
      match List.nth_opt known (req.c - 1) with
      | None -> req.lo
      | Some w -> (
          match req.lo with
          | None -> Some w
          | Some l -> if value_order w l < 0 then Some w else Some l)
    in
    if range_empty ~lo ~hi then None
    else
      let unfinished = List.filter (fun ch -> not (finished ch)) in
      match unfinished (Array.to_list children) with
      | [] -> None
      | targets -> Some (targets, { req with lo; hi })
  end

let open_mop_up kept ~k ~children ~finished =
  Option.map
    (fun (targets, req) ->
      (targets, { req with c = k - List.length kept.proven }))
    (mop_up kept (root_request ~k) ~children ~finished)

let merge kept req gathered =
  let known = List.filter (in_range req) kept.retrieved in
  take_prefix req.c
    (dedup_by_origin (List.sort value_order (known @ gathered)))

(* ---- NAIVE-1 ---- *)

type puller = {
  self : int;
  mutable heap : (int * value) list;  (* (source, entry), best first *)
  mutable exhausted : int list;  (* drained children *)
  mutable missing : int list;  (* children owing the heap an entry *)
}

let heap_insert st source entry =
  st.heap <-
    List.sort
      (fun (_, a) (_, b) -> value_order a b)
      ((source, entry) :: st.heap)

let puller ~own ~children =
  {
    self = fst own;
    heap = [ (fst own, own) ];
    exhausted = [];
    missing = Array.to_list children;
  }

let to_ask st =
  let ask = List.filter (fun c -> not (List.mem c st.exhausted)) st.missing in
  st.missing <- [];
  ask

let receive st ~src = function
  | Some entry -> heap_insert st src entry
  | None -> st.exhausted <- src :: st.exhausted

let pop st =
  match st.heap with
  | [] -> None
  | (source, entry) :: rest ->
      st.heap <- rest;
      if source <> st.self then st.missing <- [ source ];
      Some entry
