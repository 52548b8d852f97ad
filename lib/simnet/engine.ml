type 'msg api = {
  self : int;
  time : unit -> float;
  send : dst:int -> 'msg -> unit;
  broadcast_children : 'msg -> unit;
  multicast : dsts:int list -> 'msg -> unit;
  set_timer : delay:float -> (unit -> unit) -> unit;
}

type 'msg event =
  | Deliver of { dst : int; src : int; msg : 'msg }
      (* direct delivery: the lossless legacy path and [inject] *)
  | Data of { dst : int; src : int; seq : int; msg : 'msg; recv_mj : float }
      (* a sequenced data frame on the air (fault-injection mode) *)
  | AckFrame of { dst : int; src : int; seq : int }
      (* dst is the original data sender; src the acknowledging receiver *)
  | Retransmit of { src : int; dst : int; seq : int }
      (* timeout check; stale once the frame has been acknowledged *)
  | GaveUp of { src : int; dst : int; msg : 'msg }
      (* retry budget exhausted: notify the sender's give-up handler *)
  | Timer of { node : int; callback : unit -> unit }

type 'msg fault_ctx = {
  fstate : Fault.state;
  links : 'msg Reliable.t;
  policy : Reliable.policy;
  mutable retransmissions : int;
  mutable dropped : int;
  mutable duplicates : int;
  mutable gave_up : int;
}

type 'msg t = {
  topo : Sensor.Topology.t;
  mica : Sensor.Mica2.t;
  failure : (Sensor.Failure.t * Rng.t) option;
  fault : 'msg fault_ctx option;
  payload_bytes : 'msg -> int;
  queue : 'msg event Event_queue.t;
  handlers : ('msg api -> src:int -> 'msg -> unit) option array;
  give_up_handlers : ('msg api -> dst:int -> 'msg -> unit) option array;
  energy : float array;
  mutable now : float;
  mutable unicasts : int;
  mutable broadcasts : int;
  mutable reroutes : int;
  mutable bytes_sent : int;
  mutable epochs : int;
}

(* The per-instance ledgers above (and the fault counters) are the one
   record of traffic: they back the public accessors, and [run] reports
   each collection round's deltas as one [Epoch] trace span while a sink
   is installed. *)

(* Fixed MAC overhead per transmission, seconds. *)
let mac_delay = 0.005

let create topo mica ?failure ?fault ?(policy = Reliable.default_policy)
    ~payload_bytes () =
  let n = topo.Sensor.Topology.n in
  let fault =
    match fault with
    | None -> None
    | Some (f, rng) ->
        if Fault.n f <> n then
          invalid_arg "Engine.create: fault model size mismatch";
        Some
          {
            fstate = Fault.start f rng;
            links = Reliable.create ~n;
            policy;
            retransmissions = 0;
            dropped = 0;
            duplicates = 0;
            gave_up = 0;
          }
  in
  {
    topo;
    mica;
    failure;
    fault;
    payload_bytes;
    queue = Event_queue.create ();
    handlers = Array.make n None;
    give_up_handlers = Array.make n None;
    energy = Array.make n 0.;
    now = 0.;
    unicasts = 0;
    broadcasts = 0;
    reroutes = 0;
    bytes_sent = 0;
    epochs = 0;
  }

let on_message t ~node handler = t.handlers.(node) <- Some handler

let on_give_up t ~node handler = t.give_up_handlers.(node) <- Some handler

let is_neighbor t a b =
  t.topo.Sensor.Topology.parent.(a) = b || t.topo.Sensor.Topology.parent.(b) = a

(* Edge identity: the non-parent endpoint owns the edge. *)
let edge_of t a b = if t.topo.Sensor.Topology.parent.(a) = b then a else b

let transmission_delay t bytes =
  mac_delay +. (float_of_int bytes /. t.mica.Sensor.Mica2.bytes_per_sec)

let sender_share t =
  let s = t.mica.Sensor.Mica2.send_mw in
  let r = t.mica.Sensor.Mica2.recv_mw in
  s /. (s +. r)

(* The per-message cost is split between sender and receiver in proportion
   to their power draws, so ledgers sum exactly to the Mica2 unicast cost. *)
let charge_unicast t ~src ~dst ~bytes ~multiplier =
  let total = Sensor.Mica2.unicast_bytes_mj t.mica ~bytes *. multiplier in
  let share = sender_share t in
  t.energy.(src) <- t.energy.(src) +. (total *. share);
  t.energy.(dst) <- t.energy.(dst) +. (total *. (1. -. share))

(* Reliable transmission of one frame: the sender pays its share per
   attempt, the receiver pays per copy that actually arrives, and ACKs are
   free (the Mica2 per-message cost cm already covers the handshake), so a
   lossless run costs exactly what the legacy path charges. *)
let transmit_reliable t fc ~src ~dst ~seq ~msg ~bytes ~recv_mj ~attempt =
  let d_data = transmission_delay t bytes in
  let rto0 = d_data +. transmission_delay t 0 in
  Event_queue.add t.queue ~time:(t.now +. d_data)
    (Data { dst; src; seq; msg; recv_mj });
  Event_queue.add t.queue
    ~time:(t.now +. Reliable.timeout fc.policy ~rto0 ~attempt)
    (Retransmit { src; dst; seq })

let unicast t ~src ~dst msg =
  if not (is_neighbor t src dst) then
    invalid_arg
      (Printf.sprintf "Engine.send: %d and %d are not tree neighbours" src dst);
  let bytes = t.payload_bytes msg in
  match t.fault with
  | None ->
      let edge = edge_of t src dst in
      let multiplier, extra_delay =
        match t.failure with
        | None -> (1., 0.)
        | Some (f, rng) ->
            if Rng.float rng 1. < f.Sensor.Failure.fail_prob.(edge) then begin
              t.reroutes <- t.reroutes + 1;
              (f.Sensor.Failure.reroute_factor.(edge), transmission_delay t bytes)
            end
            else (1., 0.)
      in
      charge_unicast t ~src ~dst ~bytes ~multiplier;
      t.unicasts <- t.unicasts + 1;
      t.bytes_sent <- t.bytes_sent + bytes;
      Event_queue.add t.queue
        ~time:(t.now +. transmission_delay t bytes +. extra_delay)
        (Deliver { dst; src; msg })
  | Some fc ->
      if Reliable.is_dead fc.links ~src ~dst then
        (* Fast-fail: the link was already declared dead, nothing is put on
           the air.  The give-up is still an event so handlers never re-enter
           each other. *)
        Event_queue.add t.queue ~time:t.now (GaveUp { src; dst; msg })
      else begin
        let total = Sensor.Mica2.unicast_bytes_mj t.mica ~bytes in
        let share = sender_share t in
        t.energy.(src) <- t.energy.(src) +. (total *. share);
        t.unicasts <- t.unicasts + 1;
        t.bytes_sent <- t.bytes_sent + bytes;
        let recv_mj = total *. (1. -. share) in
        let seq = Reliable.alloc_seq fc.links ~src ~dst in
        let rto0 =
          transmission_delay t bytes +. transmission_delay t 0
        in
        Reliable.register fc.links ~src ~dst ~seq
          { Reliable.msg; bytes; rto0; attempts = 1; recv_mj };
        transmit_reliable t fc ~src ~dst ~seq ~msg ~bytes ~recv_mj ~attempt:1
      end

let broadcast_to t ~src kids msg =
  let bytes = t.payload_bytes msg in
  let cost =
    Sensor.Mica2.broadcast_mj t.mica ~receivers:(Array.length kids) ~bytes
  in
  (* The sender fronts the overhead and its bytes; receivers pay theirs. *)
  let recv_share = Sensor.Mica2.recv_byte_mj t.mica *. float_of_int bytes in
  t.energy.(src) <-
    t.energy.(src) +. (cost -. (recv_share *. float_of_int (Array.length kids)));
  (match t.fault with
  | None ->
      Array.iter
        (fun child ->
          t.energy.(child) <- t.energy.(child) +. recv_share;
          Event_queue.add t.queue
            ~time:(t.now +. transmission_delay t bytes)
            (Deliver { dst = child; src; msg }))
        kids
  | Some fc ->
      (* Reliable local broadcast: one transmission, but each child runs its
         own ACK state machine; a child that misses the frame is re-served
         by unicast retransmissions. *)
      Array.iter
        (fun child ->
          if Reliable.is_dead fc.links ~src ~dst:child then
            Event_queue.add t.queue ~time:t.now
              (GaveUp { src; dst = child; msg })
          else begin
            let seq = Reliable.alloc_seq fc.links ~src ~dst:child in
            let rto0 =
              transmission_delay t bytes +. transmission_delay t 0
            in
            Reliable.register fc.links ~src ~dst:child ~seq
              { Reliable.msg; bytes; rto0; attempts = 1; recv_mj = recv_share };
            transmit_reliable t fc ~src ~dst:child ~seq ~msg ~bytes
              ~recv_mj:recv_share ~attempt:1
          end)
        kids);
  t.broadcasts <- t.broadcasts + 1;
  (* One transmission on the air regardless of how many ACK machines
     track it. *)
  t.bytes_sent <- t.bytes_sent + bytes

let broadcast t ~src msg =
  broadcast_to t ~src t.topo.Sensor.Topology.children.(src) msg

let multicast t ~src ~dsts msg =
  List.iter
    (fun d ->
      if t.topo.Sensor.Topology.parent.(d) <> src then
        invalid_arg "Engine.multicast: destination is not a child")
    dsts;
  broadcast_to t ~src (Array.of_list dsts) msg

let api_for t node =
  {
    self = node;
    time = (fun () -> t.now);
    send = (fun ~dst msg -> unicast t ~src:node ~dst msg);
    broadcast_children = (fun msg -> broadcast t ~src:node msg);
    multicast = (fun ~dsts msg -> multicast t ~src:node ~dsts msg);
    set_timer =
      (fun ~delay callback ->
        if delay < 0. then invalid_arg "Engine.set_timer: negative delay";
        Event_queue.add t.queue ~time:(t.now +. delay)
          (Timer { node; callback }));
  }

let inject t ~node ?at msg =
  let time = match at with Some x -> x | None -> t.now in
  Event_queue.add t.queue ~time (Deliver { dst = node; src = -1; msg })

let deliver t ~dst ~src msg =
  match t.handlers.(dst) with
  | None -> ()
  | Some handler -> handler (api_for t dst) ~src msg

(* A frame survives the air iff the receiver's radio is listening and the
   edge doesn't eat it.  The order of checks is fixed so the per-seed
   stream of random draws — and hence the whole simulation — is
   reproducible. *)
let frame_arrives t fc ~src ~dst ~at =
  if not (Fault.node_up (Fault.config fc.fstate) ~node:dst ~at) then begin
    fc.dropped <- fc.dropped + 1;
    false
  end
  else if Fault.drops_frame fc.fstate ~edge:(edge_of t src dst) ~at then begin
    fc.dropped <- fc.dropped + 1;
    false
  end
  else true

let handle_data t fc ~time ~dst ~src ~seq ~msg ~recv_mj =
  if frame_arrives t fc ~src ~dst ~at:time then begin
    (* The radio heard the copy: pay for it even if it is a duplicate. *)
    t.energy.(dst) <- t.energy.(dst) +. recv_mj;
    Event_queue.add t.queue
      ~time:(time +. transmission_delay t 0)
      (AckFrame { dst = src; src = dst; seq });
    match Reliable.on_data fc.links ~src ~dst ~seq ~payload:(msg, recv_mj) with
    | `Duplicate -> fc.duplicates <- fc.duplicates + 1
    | `Buffered -> ()
    | `Deliver ready -> List.iter (fun (m, _) -> deliver t ~dst ~src m) ready
  end

let handle_retransmit t fc ~time:_ ~src ~dst ~seq =
  match Reliable.find fc.links ~src ~dst ~seq with
  | None -> () (* acknowledged in the meantime: stale timer *)
  | Some p ->
      if
        p.Reliable.attempts >= fc.policy.Reliable.max_attempts
        || Reliable.is_dead fc.links ~src ~dst
      then begin
        Reliable.ack fc.links ~src ~dst ~seq;
        Reliable.mark_dead fc.links ~src ~dst;
        fc.gave_up <- fc.gave_up + 1;
        Event_queue.add t.queue ~time:t.now
          (GaveUp { src; dst; msg = p.Reliable.msg })
      end
      else begin
        p.Reliable.attempts <- p.Reliable.attempts + 1;
        fc.retransmissions <- fc.retransmissions + 1;
        t.unicasts <- t.unicasts + 1;
        t.bytes_sent <- t.bytes_sent + p.Reliable.bytes;
        if Obs.Trace.active () then
          Obs.Trace.emit Obs.Trace.Retransmit ~name:"simnet.engine"
            [
              ("src", Obs.Trace.Int src);
              ("dst", Obs.Trace.Int dst);
              ("seq", Obs.Trace.Int seq);
              ("attempt", Obs.Trace.Int p.Reliable.attempts);
              ("bytes", Obs.Trace.Int p.Reliable.bytes);
            ];
        (* Retransmissions are unicasts with the full handshake, whatever
           the original frame was. *)
        let total =
          Sensor.Mica2.unicast_bytes_mj t.mica ~bytes:p.Reliable.bytes
        in
        let share = sender_share t in
        t.energy.(src) <- t.energy.(src) +. (total *. share);
        p.Reliable.recv_mj <- total *. (1. -. share);
        transmit_reliable t fc ~src ~dst ~seq ~msg:p.Reliable.msg
          ~bytes:p.Reliable.bytes ~recv_mj:p.Reliable.recv_mj
          ~attempt:p.Reliable.attempts
      end

let fault_stat t pick = match t.fault with None -> 0 | Some fc -> pick fc

(* Reliability events (Data/AckFrame/Retransmit) are only ever scheduled
   by the fault layer, so a missing fault context here is a scheduler
   invariant violation; fail with the event and link rather than a bare
   [Option.get] backtrace. *)
let fault_ctx t ~event ~src ~dst =
  match t.fault with
  | Some fc -> fc
  | None ->
      failwith
        (Printf.sprintf
           "Simnet.Engine: %s event on link %d->%d but no fault model is \
            installed"
           event src dst)

let run ?(max_events = 10_000_000) t =
  (* Snapshot the ledgers so the epoch span reports this run's deltas even
     when the same engine executes several collection rounds.  The snapshot
     (an O(n) energy fold) is taken only while a trace sink is installed. *)
  let emit_epoch =
    if not (Obs.Trace.active ()) then None
    else begin
      let wall0 = Obs.Trace.now ()
      and sim0 = t.now
      and u0 = t.unicasts
      and b0 = t.broadcasts
      and by0 = t.bytes_sent
      and rr0 = t.reroutes
      and r0 = fault_stat t (fun fc -> fc.retransmissions)
      and d0 = fault_stat t (fun fc -> fc.dropped)
      and du0 = fault_stat t (fun fc -> fc.duplicates)
      and g0 = fault_stat t (fun fc -> fc.gave_up)
      and e0 = Array.fold_left ( +. ) 0. t.energy in
      Some
        (fun finished ->
          let e1 = Array.fold_left ( +. ) 0. t.energy in
          Obs.Trace.emit Obs.Trace.Epoch ~name:"simnet.engine" ~start_s:wall0
            ~dur_s:(Obs.Trace.now () -. wall0)
            [
              ("epoch", Obs.Trace.Int (t.epochs - 1));
              ("unicasts", Obs.Trace.Int (t.unicasts - u0));
              ("broadcasts", Obs.Trace.Int (t.broadcasts - b0));
              ("bytes", Obs.Trace.Int (t.bytes_sent - by0));
              ("reroutes", Obs.Trace.Int (t.reroutes - rr0));
              ( "retransmissions",
                Obs.Trace.Int
                  (fault_stat t (fun fc -> fc.retransmissions) - r0) );
              ( "dropped",
                Obs.Trace.Int (fault_stat t (fun fc -> fc.dropped) - d0) );
              ( "duplicates",
                Obs.Trace.Int (fault_stat t (fun fc -> fc.duplicates) - du0)
              );
              ( "gave_up",
                Obs.Trace.Int (fault_stat t (fun fc -> fc.gave_up) - g0) );
              ("energy_mj", Obs.Trace.Float (e1 -. e0));
              ("sim_time_s", Obs.Trace.Float (finished -. sim0));
            ])
    end
  in
  let events = ref 0 in
  let rec loop () =
    match Event_queue.pop t.queue with
    | None -> t.now
    | Some (time, event) ->
        incr events;
        if !events > max_events then
          failwith "Engine.run: event budget exceeded (livelock?)";
        (* A retransmission timer whose frame was acknowledged is a no-op;
           skipping it without advancing the clock keeps the final
           simulation time equal to the moment real work finished. *)
        let stale =
          match (event, t.fault) with
          | Retransmit { src; dst; seq }, Some fc ->
              Reliable.find fc.links ~src ~dst ~seq = None
          | _ -> false
        in
        if not stale then begin
          t.now <- Float.max t.now time;
          match event with
          | Timer { callback; _ } -> callback ()
          | Deliver { dst; src; msg } -> deliver t ~dst ~src msg
          | Data { dst; src; seq; msg; recv_mj } ->
              let fc = fault_ctx t ~event:"Data" ~src ~dst in
              handle_data t fc ~time:t.now ~dst ~src ~seq ~msg ~recv_mj
          | AckFrame { dst; src; seq } ->
              let fc = fault_ctx t ~event:"AckFrame" ~src ~dst in
              (* [dst] sent the data originally; [src] is acknowledging. *)
              if frame_arrives t fc ~src ~dst ~at:t.now then
                Reliable.ack fc.links ~src:dst ~dst:src ~seq
          | Retransmit { src; dst; seq } ->
              let fc = fault_ctx t ~event:"Retransmit" ~src ~dst in
              handle_retransmit t fc ~time:t.now ~src ~dst ~seq
          | GaveUp { src; dst; msg } -> (
              match t.give_up_handlers.(src) with
              | None -> ()
              | Some handler -> handler (api_for t src) ~dst msg)
        end;
        loop ()
  in
  let finished = loop () in
  t.epochs <- t.epochs + 1;
  Option.iter (fun emit -> emit finished) emit_epoch;
  finished

let energy_of t node = t.energy.(node)

let total_energy t = Array.fold_left ( +. ) 0. t.energy

let unicasts_sent t = t.unicasts

let broadcasts_sent t = t.broadcasts

let reroutes t = t.reroutes

let retransmissions_sent t =
  match t.fault with None -> 0 | Some fc -> fc.retransmissions

let dropped_frames t = match t.fault with None -> 0 | Some fc -> fc.dropped

let duplicate_frames t =
  match t.fault with None -> 0 | Some fc -> fc.duplicates

let gave_up t = match t.fault with None -> 0 | Some fc -> fc.gave_up

let dead_links t =
  match t.fault with None -> [] | Some fc -> Reliable.dead_links fc.links
