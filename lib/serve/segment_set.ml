type 'a entry = {
  payload : 'a;
  lo : float;
  hi : float;
  seq : int;
  mutable used : int;
}

type 'a t = {
  capacity : int;
  (* sorted by (lo, hi, seq), so every scan below is canonically ordered *)
  mutable entries : 'a entry list;
  mutable clock : int;
}

let create ~capacity =
  if capacity < 0 then invalid_arg "Segment_set.create: negative capacity";
  { capacity; entries = []; clock = 0 }

type 'a found = Containing of 'a | Nearest of 'a | Empty

let tick t =
  t.clock <- t.clock + 1;
  t.clock

(* Distance from [budget] to the closed interval of [e]; 0 inside. *)
let distance e budget =
  if budget < e.lo then e.lo -. budget
  else if budget > e.hi then budget -. e.hi
  else 0.

let lookup t ~budget =
  (* strict improvement only: ties keep the earlier entry in budget order *)
  let best =
    List.fold_left
      (fun acc e ->
        let d = distance e budget in
        match acc with
        | Some (bd, _) when not (d < bd) -> acc
        | _ -> Some (d, e))
      None t.entries
  in
  match best with
  | None -> Empty
  | Some (d, e) ->
      e.used <- tick t;
      if d = 0. then Containing e.payload else Nearest e.payload

let by_budget a b =
  match Float.compare a.lo b.lo with
  | 0 -> (
      match Float.compare a.hi b.hi with 0 -> Int.compare a.seq b.seq | c -> c)
  | c -> c

let insert t ~lo ~hi payload =
  if t.capacity > 0 then begin
    let now = tick t in
    let kept = List.filter (fun e -> not (lo <= e.lo && e.hi <= hi)) t.entries in
    let kept =
      match kept with
      | first :: _ when List.length kept >= t.capacity ->
          (* evict the least recently used entry (clock values are unique) *)
          let lru =
            List.fold_left (fun acc e -> if e.used < acc.used then e else acc) first kept
          in
          List.filter (fun e -> e != lru) kept
      | _ -> kept
    in
    t.entries <-
      List.stable_sort by_budget ({ payload; lo; hi; seq = now; used = now } :: kept)
  end

let size t = List.length t.entries

let bounds t = List.map (fun e -> (e.lo, e.hi)) t.entries
