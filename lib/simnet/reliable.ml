type policy = {
  rto_scale : float;
  backoff : float;
  rto_max : float;
  max_attempts : int;
}

let default_policy =
  { rto_scale = 4.; backoff = 2.; rto_max = 2.; max_attempts = 12 }

let timeout p ~rto0 ~attempt =
  if attempt < 1 then invalid_arg "Reliable.timeout: attempt < 1";
  Float.min p.rto_max
    (p.rto_scale *. rto0 *. (p.backoff ** float_of_int (attempt - 1)))

let expected_cost_multiplier ~drop ~sender_share =
  if Float.is_nan drop || drop < 0. || drop >= 1. then
    invalid_arg "Reliable.expected_cost_multiplier: drop must be in [0, 1)";
  let q = 1. -. drop in
  (sender_share /. (q *. q)) +. ((1. -. sender_share) /. q)

type 'msg pending = {
  msg : 'msg;
  bytes : int;
  rto0 : float;
  mutable attempts : int;
  mutable recv_mj : float;
}

(* One record per directed link: the sender-side fields (sequence counter,
   pending frames, dead flag) logically live at [src], the receiver-side
   fields (next expected sequence number, reorder buffer) at [dst]. *)
type 'msg link = {
  mutable next_seq : int;
  pending : (int, 'msg pending) Hashtbl.t;
  mutable dead : bool;
  mutable expected : int;
  buffer : (int, 'msg * float) Hashtbl.t;
}

type 'msg t = {
  n : int;
  links : (int, 'msg link) Hashtbl.t;
  mutable dead_list : (int * int) list;
}

let create ~n = { n; links = Hashtbl.create 64; dead_list = [] }

let link t ~src ~dst =
  let key = (src * t.n) + dst in
  match Hashtbl.find_opt t.links key with
  | Some l -> l
  | None ->
      let l =
        {
          next_seq = 0;
          pending = Hashtbl.create 4;
          dead = false;
          expected = 0;
          buffer = Hashtbl.create 4;
        }
      in
      Hashtbl.add t.links key l;
      l

let alloc_seq t ~src ~dst =
  let l = link t ~src ~dst in
  let seq = l.next_seq in
  l.next_seq <- seq + 1;
  seq

let register t ~src ~dst ~seq p = Hashtbl.replace (link t ~src ~dst).pending seq p

let find t ~src ~dst ~seq = Hashtbl.find_opt (link t ~src ~dst).pending seq

let ack t ~src ~dst ~seq = Hashtbl.remove (link t ~src ~dst).pending seq

let mark_dead t ~src ~dst =
  let l = link t ~src ~dst in
  if not l.dead then begin
    l.dead <- true;
    t.dead_list <- (src, dst) :: t.dead_list
  end

let is_dead t ~src ~dst = (link t ~src ~dst).dead

let dead_links t = List.rev t.dead_list

let on_data t ~src ~dst ~seq ~payload =
  let l = link t ~src ~dst in
  if seq < l.expected || Hashtbl.mem l.buffer seq then `Duplicate
  else if seq > l.expected then begin
    Hashtbl.replace l.buffer seq payload;
    `Buffered
  end
  else begin
    let ready = ref [ payload ] in
    l.expected <- l.expected + 1;
    let rec drain () =
      match Hashtbl.find_opt l.buffer l.expected with
      | Some p ->
          Hashtbl.remove l.buffer l.expected;
          l.expected <- l.expected + 1;
          ready := p :: !ready;
          drain ()
      | None -> ()
    in
    drain ();
    `Deliver (List.rev !ready)
  end
