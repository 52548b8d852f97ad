type 'a entry = { payload : 'a; mutable last_used : int; seq : int }

type 'a t = {
  capacity : int;
  entries : (string, 'a entry) Hashtbl.t;
  mutable clock : int;
  mutable seq : int;
  mutable evicted : int;
}

let create ~capacity =
  if capacity < 0 then invalid_arg "Plan_cache.create: negative capacity";
  {
    capacity;
    entries = Hashtbl.create 64;
    clock = 0;
    seq = 0;
    evicted = 0;
  }

let tick t =
  t.clock <- t.clock + 1;
  t.clock

let next_seq t =
  let s = t.seq in
  t.seq <- s + 1;
  s

let find t ~key =
  match Hashtbl.find_opt t.entries key with
  | None -> None
  | Some e ->
      e.last_used <- tick t;
      Some e.payload

(* Deterministic LRU victim: smallest (last_used, seq), found by one
   scan.  Every entry's pair is distinct, so the minimum does not depend
   on the order the table is walked in. *)
let evict_lru table =
  let victim =
    (Hashtbl.fold [@lint.allow "R2"])
      (fun key e acc ->
        match acc with
        | Some (_, u, s)
          when u < e.last_used || (u = e.last_used && s < e.seq) ->
            acc
        | _ -> Some (key, e.last_used, e.seq))
      table None
  in
  Option.iter (fun (key, _, _) -> Hashtbl.remove table key) victim

let add t ~key payload =
  if t.capacity > 0 then begin
    (match Hashtbl.find_opt t.entries key with
    | Some _ -> Hashtbl.remove t.entries key
    | None ->
        if Hashtbl.length t.entries >= t.capacity then begin
          evict_lru t.entries;
          t.evicted <- t.evicted + 1
        end);
    Hashtbl.replace t.entries key
      { payload; last_used = tick t; seq = next_seq t }
  end

let size t = Hashtbl.length t.entries

let evictions t = t.evicted
