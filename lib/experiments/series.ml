type t = {
  title : string;
  columns : string list;
  rows : float list list;
  notes : string list;
}

let make ~title ~columns ?(notes = []) rows =
  List.iter
    (fun row ->
      if List.length row <> List.length columns then
        invalid_arg "Series.make: row width mismatch")
    rows;
  { title; columns; rows; notes }

let print ppf t =
  let width = 12 in
  Format.fprintf ppf "@.== %s ==@." t.title;
  List.iter (fun c -> Format.fprintf ppf "%*s" width c) t.columns;
  Format.fprintf ppf "@.";
  List.iter
    (fun row ->
      List.iter (fun v -> Format.fprintf ppf "%*.2f" width v) row;
      Format.fprintf ppf "@.")
    t.rows;
  List.iter (fun n -> Format.fprintf ppf "   %s@." n) t.notes

let print_all ppf = List.iter (print ppf)
