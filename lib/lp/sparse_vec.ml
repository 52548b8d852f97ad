type t = { idx : int array; value : float array }

let drop_tol = 1e-12

let empty = { idx = [||]; value = [||] }

let nnz v = Array.length v.idx

let of_assoc pairs =
  let pairs = List.filter (fun (_, x) -> Float.abs x > 0.) pairs in
  List.iter
    (fun (i, _) ->
      if i < 0 then invalid_arg "Sparse_vec.of_assoc: negative index")
    pairs;
  let sorted = List.sort (fun (i, _) (j, _) -> Int.compare i j) pairs in
  (* Sum duplicates, then drop tiny entries. *)
  let rec merge acc = function
    | [] -> List.rev acc
    | ((i : int), x) :: rest -> (
        match acc with
        | (j, y) :: acc' when i = j -> merge ((j, y +. x) :: acc') rest
        | _ -> merge ((i, x) :: acc) rest)
  in
  let merged =
    List.filter (fun (_, x) -> Float.abs x > drop_tol) (merge [] sorted)
  in
  {
    idx = Array.of_list (List.map fst merged);
    value = Array.of_list (List.map snd merged);
  }

let of_arrays idx value =
  if Array.length idx <> Array.length value then
    invalid_arg "Sparse_vec.of_arrays: length mismatch";
  for p = 1 to Array.length idx - 1 do
    if idx.(p - 1) >= idx.(p) then
      invalid_arg "Sparse_vec.of_arrays: indices not strictly increasing"
  done;
  if Array.length idx > 0 && idx.(0) < 0 then
    invalid_arg "Sparse_vec.of_arrays: negative index";
  { idx; value }

let get v i =
  let rec search lo hi =
    if lo >= hi then 0.
    else
      let mid = (lo + hi) / 2 in
      if v.idx.(mid) = i then v.value.(mid)
      else if v.idx.(mid) < i then search (mid + 1) hi
      else search lo mid
  in
  search 0 (nnz v)

let dot_dense v d =
  let acc = ref 0. in
  for p = 0 to nnz v - 1 do
    acc := !acc +. (v.value.(p) *. d.(v.idx.(p)))
  done;
  !acc

let axpy_dense a v d =
  for p = 0 to nnz v - 1 do
    d.(v.idx.(p)) <- d.(v.idx.(p)) +. (a *. v.value.(p))
  done

let iter f v =
  for p = 0 to nnz v - 1 do
    f v.idx.(p) v.value.(p)
  done

let fold f init v =
  let acc = ref init in
  for p = 0 to nnz v - 1 do
    acc := f !acc v.idx.(p) v.value.(p)
  done;
  !acc

let max_abs v =
  let m = ref 0. in
  for p = 0 to nnz v - 1 do
    let a = Float.abs v.value.(p) in
    if a > !m then m := a
  done;
  !m

let scale a v =
  of_assoc (List.init (nnz v) (fun p -> (v.idx.(p), a *. v.value.(p))))
