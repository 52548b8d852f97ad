(* The random LP corpus of the differential tests: each seed gives one
   small bounded-variable LP, every verdict represented. *)

type spec = {
  maximize : bool;
  lower : float array;
  upper : float array; (* infinity = unbounded above *)
  obj : float array;
  rows : (float array * Lp.Model.sense * float) array;
}

(* Lower bounds are kept non-negative so the dense reference — which bakes
   in x >= 0 — can express every bound as a row without shifting. *)
let gen_spec rng =
  let n = 1 + Rng.int rng 6 in
  let m = 1 + Rng.int rng 6 in
  let lower =
    Array.init n (fun _ -> if Rng.bool rng then 0. else Rng.float rng 2.)
  in
  let upper =
    Array.init n (fun i ->
        if Rng.int rng 3 = 0 then lower.(i) +. Rng.float rng 3. else infinity)
  in
  let obj =
    Array.init n (fun _ ->
        if Rng.int rng 4 = 0 then 0. else Rng.uniform rng ~lo:(-5.) ~hi:5.)
  in
  let rows =
    Array.init m (fun _ ->
        let coeffs =
          Array.init n (fun _ ->
              if Rng.int rng 3 = 0 then 0. else Rng.uniform rng ~lo:(-4.) ~hi:4.)
        in
        let sense =
          match Rng.int rng 5 with
          | 0 | 1 -> Lp.Model.Le
          | 2 | 3 -> Lp.Model.Ge
          | _ -> Lp.Model.Eq
        in
        (coeffs, sense, Rng.uniform rng ~lo:(-10.) ~hi:10.))
  in
  { maximize = Rng.bool rng; lower; upper; obj; rows }

let build_model spec =
  let dir = if spec.maximize then Lp.Model.Maximize else Lp.Model.Minimize in
  let m = Lp.Model.create ~direction:dir () in
  let xs =
    Array.init (Array.length spec.lower) (fun i ->
        Lp.Model.add_var m ~lower:spec.lower.(i) ~upper:spec.upper.(i)
          ~obj:spec.obj.(i)
          (Printf.sprintf "x%d" i))
  in
  Array.iter
    (fun (coeffs, sense, rhs) ->
      let terms =
        Array.to_list (Array.mapi (fun i c -> (c, xs.(i))) coeffs)
        |> List.filter (fun (c, _) -> c <> 0.)
      in
      (* An all-zero row still constrains: 0 <sense> rhs. *)
      let terms = if terms = [] then [ (0., xs.(0)) ] else terms in
      Lp.Model.add_constraint m terms sense rhs)
    spec.rows;
  m
