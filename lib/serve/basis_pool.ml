type entry = { basis : Lp.Model.basis; budget : float; seq : int }

type t = {
  capacity : int;
  (* kept sorted by budget (ties by seq), so every scan below is over a
     canonically ordered list *)
  mutable entries : entry list;
  mutable seq : int;
}

let create ~capacity =
  if capacity < 0 then invalid_arg "Basis_pool.create: negative capacity";
  { capacity; entries = []; seq = 0 }

let by_budget a b =
  match Float.compare a.budget b.budget with
  | 0 -> Int.compare a.seq b.seq
  | c -> c

let insert t ~budget basis =
  if t.capacity > 0 then begin
    let seq = t.seq in
    t.seq <- seq + 1;
    let kept = List.filter (fun e -> e.budget <> budget) t.entries in
    let kept =
      if List.length kept >= t.capacity then
        (* evict the oldest entry to make room for the newcomer *)
        match
          List.stable_sort
            (fun (a : entry) (b : entry) -> Int.compare a.seq b.seq)
            kept
        with
        | [] -> []
        | _oldest :: rest -> rest
      else kept
    in
    t.entries <- List.stable_sort by_budget ({ basis; budget; seq } :: kept)
  end

let lookup t ~budget =
  (* Nearest budget; the sorted list makes ties resolve to the lower
     budget, then the older entry. *)
  let best =
    List.fold_left
      (fun acc e ->
        let d = Float.abs (e.budget -. budget) in
        match acc with
        | None -> Some (d, e)
        | Some (bd, _) when d < bd -> Some (d, e)
        | Some _ -> acc)
      None t.entries
  in
  Option.map (fun (_, e) -> e.basis) best

let size t = List.length t.entries
