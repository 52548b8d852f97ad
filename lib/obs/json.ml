(* Minimal JSON reader/writer.  The repository has no JSON dependency and
   cannot grow one offline, yet several subsystems need the format: the
   trace exporter (JSON-lines), the benchmark (reading its catalogue),
   guarantee records, and the lint and sweep reports.  This covers the
   full JSON grammar; numbers are carried as OCaml floats, which is
   exact for every integer the instrumentation emits (|n| < 2^53). *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

(* ---- printing ---- *)

let escape buf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s

let number_to_string x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else if Float.is_nan x then "null" (* NaN has no JSON spelling *)
  else if x = infinity then "1e999"
  else if x = neg_infinity then "-1e999"
  else
    (* Shortest representation that round-trips. *)
    let s = Printf.sprintf "%.12g" x in
    if float_of_string s = x then s else Printf.sprintf "%.17g" x

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Num x -> Buffer.add_string buf (number_to_string x)
  | Str s ->
      Buffer.add_char buf '"';
      escape buf s;
      Buffer.add_char buf '"'
  | List xs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_string buf ", ";
          write buf x)
        xs;
      Buffer.add_char buf ']'
  | Obj kvs ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string buf ", ";
          Buffer.add_char buf '"';
          escape buf k;
          Buffer.add_string buf "\": ";
          write buf v)
        kvs;
      Buffer.add_char buf '}'

let to_string t =
  let buf = Buffer.create 256 in
  write buf t;
  Buffer.contents buf

(* Indented printer for written artifacts: objects one member per line,
   leaf lists inline, so diffs between reports stay reviewable. *)
let rec write_pretty buf indent = function
  | Obj kvs when kvs <> [] ->
      let pad = String.make indent ' ' and pad' = String.make (indent + 2) ' ' in
      Buffer.add_string buf "{\n";
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string buf ",\n";
          Buffer.add_string buf pad';
          Buffer.add_char buf '"';
          escape buf k;
          Buffer.add_string buf "\": ";
          write_pretty buf (indent + 2) v)
        kvs;
      Buffer.add_char buf '\n';
      Buffer.add_string buf pad;
      Buffer.add_char buf '}'
  | List xs when List.exists (function Obj _ | List _ -> true | _ -> false) xs
    ->
      let pad = String.make indent ' ' and pad' = String.make (indent + 2) ' ' in
      Buffer.add_string buf "[\n";
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_string buf ",\n";
          Buffer.add_string buf pad';
          write_pretty buf (indent + 2) x)
        xs;
      Buffer.add_char buf '\n';
      Buffer.add_string buf pad;
      Buffer.add_char buf ']'
  | t -> write buf t

let to_string_pretty t =
  let buf = Buffer.create 1024 in
  write_pretty buf 0 t;
  Buffer.add_char buf '\n';
  Buffer.contents buf

(* ---- parsing ---- *)

type parser_state = { s : string; mutable pos : int }

let fail st msg =
  raise (Parse_error (Printf.sprintf "%s at offset %d" msg st.pos))

let peek st = if st.pos < String.length st.s then Some st.s.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let rec skip_ws st =
  match peek st with
  | Some (' ' | '\t' | '\n' | '\r') ->
      advance st;
      skip_ws st
  | _ -> ()

let expect st c =
  match peek st with
  | Some c' when c' = c -> advance st
  | _ -> fail st (Printf.sprintf "expected '%c'" c)

let literal st word value =
  let n = String.length word in
  if
    st.pos + n <= String.length st.s
    && String.sub st.s st.pos n = word
  then begin
    st.pos <- st.pos + n;
    value
  end
  else fail st (Printf.sprintf "expected '%s'" word)

let parse_string st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> fail st "unterminated string"
    | Some '"' -> advance st
    | Some '\\' -> (
        advance st;
        match peek st with
        | None -> fail st "unterminated escape"
        | Some c ->
            advance st;
            (match c with
            | '"' -> Buffer.add_char buf '"'
            | '\\' -> Buffer.add_char buf '\\'
            | '/' -> Buffer.add_char buf '/'
            | 'b' -> Buffer.add_char buf '\b'
            | 'f' -> Buffer.add_char buf '\012'
            | 'n' -> Buffer.add_char buf '\n'
            | 'r' -> Buffer.add_char buf '\r'
            | 't' -> Buffer.add_char buf '\t'
            | 'u' ->
                if st.pos + 4 > String.length st.s then
                  fail st "truncated \\u escape";
                let hex = String.sub st.s st.pos 4 in
                st.pos <- st.pos + 4;
                let cp =
                  try int_of_string ("0x" ^ hex)
                  with _ -> fail st "bad \\u escape"
                in
                (* Encode the BMP codepoint as UTF-8 (surrogate pairs are
                   not reassembled; nothing we emit uses them). *)
                if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
                else if cp < 0x800 then begin
                  Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
                  Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
                end
                else begin
                  Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
                  Buffer.add_char buf
                    (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
                  Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
                end
            | _ -> fail st "bad escape");
            go ())
    | Some c ->
        advance st;
        Buffer.add_char buf c;
        go ()
  in
  go ();
  Buffer.contents buf

let parse_number st =
  let start = st.pos in
  let is_num_char = function
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  let rec go () =
    match peek st with
    | Some c when is_num_char c ->
        advance st;
        go ()
    | _ -> ()
  in
  go ();
  let text = String.sub st.s start (st.pos - start) in
  match float_of_string_opt text with
  | Some x -> x
  | None -> fail st (Printf.sprintf "bad number %S" text)

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> fail st "unexpected end of input"
  | Some '{' -> (
      advance st;
      skip_ws st;
      match peek st with
      | Some '}' ->
          advance st;
          Obj []
      | _ ->
          let rec members acc =
            skip_ws st;
            let k = parse_string st in
            skip_ws st;
            expect st ':';
            let v = parse_value st in
            skip_ws st;
            match peek st with
            | Some ',' ->
                advance st;
                members ((k, v) :: acc)
            | Some '}' ->
                advance st;
                List.rev ((k, v) :: acc)
            | _ -> fail st "expected ',' or '}'"
          in
          Obj (members []))
  | Some '[' -> (
      advance st;
      skip_ws st;
      match peek st with
      | Some ']' ->
          advance st;
          List []
      | _ ->
          let rec items acc =
            let v = parse_value st in
            skip_ws st;
            match peek st with
            | Some ',' ->
                advance st;
                items (v :: acc)
            | Some ']' ->
                advance st;
                List.rev (v :: acc)
            | _ -> fail st "expected ',' or ']'"
          in
          List (items []))
  | Some '"' -> Str (parse_string st)
  | Some 't' -> literal st "true" (Bool true)
  | Some 'f' -> literal st "false" (Bool false)
  | Some 'n' -> literal st "null" Null
  | Some _ -> Num (parse_number st)

let parse s =
  let st = { s; pos = 0 } in
  match parse_value st with
  | v ->
      skip_ws st;
      if st.pos <> String.length s then Error "trailing garbage after value"
      else Ok v
  | exception Parse_error msg -> Error msg

let of_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> parse (really_input_string ic (in_channel_length ic)))

(* ---- accessors ---- *)

let member key = function
  | Obj kvs -> List.assoc_opt key kvs
  | _ -> None

let to_num = function Num x -> Some x | _ -> None

let to_str = function Str s -> Some s | _ -> None

let to_bool = function Bool b -> Some b | _ -> None

let to_list = function List xs -> Some xs | _ -> None
