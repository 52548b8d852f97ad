type 'a entry = { time : float; seq : int; payload : 'a }

type 'a t = {
  mutable heap : 'a entry array;  (* 1-based binary heap in heap.(1..size) *)
  mutable size : int;
  mutable next_seq : int;
}

let create () = { heap = [||]; size = 0; next_seq = 0 }

let is_empty t = t.size = 0

let length t = t.size

let before a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

let grow t entry =
  let cap = Array.length t.heap in
  if t.size + 1 >= cap then begin
    let bigger = Array.make (Int.max 16 (2 * cap)) entry in
    Array.blit t.heap 0 bigger 0 cap;
    t.heap <- bigger
  end

let add t ~time payload =
  if Float.is_nan time then invalid_arg "Event_queue.add: NaN time";
  let entry = { time; seq = t.next_seq; payload } in
  t.next_seq <- t.next_seq + 1;
  grow t entry;
  t.size <- t.size + 1;
  t.heap.(t.size) <- entry;
  (* Sift up. *)
  let i = ref t.size in
  while !i > 1 && before t.heap.(!i) t.heap.(!i / 2) do
    let parent = !i / 2 in
    let tmp = t.heap.(parent) in
    t.heap.(parent) <- t.heap.(!i);
    t.heap.(!i) <- tmp;
    i := parent
  done

(* Halve the backing array when occupancy falls below a quarter: a burst
   of events (e.g. retransmission timers during a loss episode) would
   otherwise leave a large array whose dead slots pin every popped event's
   payload for the rest of the simulation. *)
let shrink t top =
  let cap = Array.length t.heap in
  if cap >= 64 && 4 * (t.size + 1) <= cap then begin
    let smaller = Array.make (cap / 2) top in
    Array.blit t.heap 0 smaller 0 (t.size + 1);
    t.heap <- smaller
  end

let pop t =
  if t.size = 0 then None
  else begin
    let top = t.heap.(1) in
    t.heap.(1) <- t.heap.(t.size);
    t.size <- t.size - 1;
    (* Sift down. *)
    let i = ref 1 in
    let continue = ref true in
    while !continue do
      let l = 2 * !i and r = (2 * !i) + 1 in
      let smallest = ref !i in
      if l <= t.size && before t.heap.(l) t.heap.(!smallest) then smallest := l;
      if r <= t.size && before t.heap.(r) t.heap.(!smallest) then smallest := r;
      if !smallest = !i then continue := false
      else begin
        let tmp = t.heap.(!smallest) in
        t.heap.(!smallest) <- t.heap.(!i);
        t.heap.(!i) <- tmp;
        i := !smallest
      end
    done;
    shrink t top;
    Some (top.time, top.payload)
  end

