(* Typed trace events with an installable in-memory sink.

   Instrumentation points call {!emit}; with no sink installed (the
   default) the call is one load and a branch.  Sinks record events in
   emission order; the exporter renders JSON-lines (one event per line,
   parse it back with {!read_jsonl}). *)

type kind =
  | Solve | Certify | Plan | Epoch | Retransmit | Guarantee | Repair | Serve

type attr =
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool

type event = {
  kind : kind;
  name : string;
  start_s : float;
  dur_s : float;
  attrs : (string * attr) list;
}

type sink = { mutable rev_events : event list; mutable count : int }

let current : sink option ref = ref None

let create () = { rev_events = []; count = 0 }

let install s = current := s

let active () = !current <> None

let now () = Unix.gettimeofday ()

let emit kind ~name ?(start_s = 0.) ?(dur_s = 0.) attrs =
  match !current with
  | None -> ()
  | Some s ->
      s.rev_events <- { kind; name; start_s; dur_s; attrs } :: s.rev_events;
      s.count <- s.count + 1

let events s = List.rev s.rev_events

let length s = s.count

let clear s =
  s.rev_events <- [];
  s.count <- 0

let kind_to_string = function
  | Solve -> "solve"
  | Certify -> "certify"
  | Plan -> "plan"
  | Epoch -> "epoch"
  | Retransmit -> "retransmit"
  | Guarantee -> "guarantee"
  | Repair -> "repair"
  | Serve -> "serve"

(* Declaration-order rank, so aggregators can sort without polymorphic
   compare and exporter output has one canonical kind order. *)
let kind_rank = function
  | Solve -> 0
  | Certify -> 1
  | Plan -> 2
  | Epoch -> 3
  | Retransmit -> 4
  | Guarantee -> 5
  | Repair -> 6
  | Serve -> 7

let compare_kind a b = Int.compare (kind_rank a) (kind_rank b)

let kind_of_string = function
  | "solve" -> Some Solve
  | "certify" -> Some Certify
  | "plan" -> Some Plan
  | "epoch" -> Some Epoch
  | "retransmit" -> Some Retransmit
  | "guarantee" -> Some Guarantee
  | "repair" -> Some Repair
  | "serve" -> Some Serve
  | _ -> None

(* ---- JSON-lines ---- *)

let attr_to_json = function
  | Int i -> Json.Num (float_of_int i)
  | Float x -> Json.Num x
  | Str s -> Json.Str s
  | Bool b -> Json.Bool b

(* Ints and floats share JSON's single number type; integral numbers come
   back as [Int], so emit whole-valued floats as [Float] only if the
   distinction never matters to a consumer (it does not: every attr
   consumer goes through {!number}). *)
let attr_of_json = function
  | Json.Num x ->
      if Float.is_integer x && Float.abs x < 1e15 then
        Some (Int (int_of_float x))
      else Some (Float x)
  | Json.Str s -> Some (Str s)
  | Json.Bool b -> Some (Bool b)
  | _ -> None

let event_to_json e =
  Json.Obj
    [
      ("kind", Json.Str (kind_to_string e.kind));
      ("name", Json.Str e.name);
      ("start_s", Json.Num e.start_s);
      ("dur_s", Json.Num e.dur_s);
      ( "attrs",
        Json.Obj (List.map (fun (k, v) -> (k, attr_to_json v)) e.attrs) );
    ]

let event_of_json j =
  let ( let* ) = Option.bind in
  let* kind = Option.bind (Json.member "kind" j) Json.to_str in
  let* kind = kind_of_string kind in
  let* name = Option.bind (Json.member "name" j) Json.to_str in
  let* start_s = Option.bind (Json.member "start_s" j) Json.to_num in
  let* dur_s = Option.bind (Json.member "dur_s" j) Json.to_num in
  match Json.member "attrs" j with
  | Some (Json.Obj kvs) ->
      let attrs =
        List.filter_map
          (fun (k, v) -> Option.map (fun a -> (k, a)) (attr_of_json v))
          kvs
      in
      Some { kind; name; start_s; dur_s; attrs }
  | _ -> None

let write_jsonl oc evs =
  List.iter
    (fun e ->
      output_string oc (Json.to_string (event_to_json e));
      output_char oc '\n')
    evs

let to_file path evs =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> write_jsonl oc evs)

let read_jsonl path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec go acc lineno =
        match input_line ic with
        | exception End_of_file -> Ok (List.rev acc)
        | "" -> go acc (lineno + 1)
        | line -> (
            match Json.parse line with
            | Error msg ->
                Error (Printf.sprintf "line %d: %s" lineno msg)
            | Ok j -> (
                match event_of_json j with
                | Some e -> go (e :: acc) (lineno + 1)
                | None ->
                    Error (Printf.sprintf "line %d: not a trace event" lineno)))
      in
      go [] 1)

(* ---- attr helpers for consumers ---- *)

let find_attr e key = List.assoc_opt key e.attrs

let number e key =
  match find_attr e key with
  | Some (Int i) -> Some (float_of_int i)
  | Some (Float x) -> Some x
  | _ -> None
