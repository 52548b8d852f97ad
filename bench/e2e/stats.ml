let sorted a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

let mean a =
  let n = Array.length a in
  if n = 0 then 0. else Array.fold_left ( +. ) 0. a /. float_of_int n

let median a =
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.median: no samples";
  let s = sorted a in
  if n mod 2 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.

let paired_median a =
  let h = Array.length a / 2 in
  if h = 0 then median a else median (Array.init h (fun i -> Float.min a.(i) a.(i + h)))

(* 1-based nearest rank of the [p]-th percentile among [n] samples. *)
let rank ~p n =
  (* the epsilon keeps an exact product like 99 x 1000 / 100 from
     rounding up past its integer *)
  Int.max 1 (int_of_float (Float.ceil ((p *. float_of_int n /. 100.) -. 1e-9)))

let percentile ~p a =
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.percentile: no samples";
  (sorted a).(Int.min n (rank ~p n) - 1)

let tail_ladder = [ 99.9; 99.; 95.; 90.; 75.; 50. ]

let tail_percentile n = List.find_opt (fun p -> n - rank ~p n >= 10) tail_ladder

let quartiles a =
  let n = Array.length a in
  if n < 2 then invalid_arg "Stats.quartiles: need two samples";
  let s = sorted a in
  let m = n + 1 in
  let cut i =
    let j = Int.max 1 (Int.min (n - 1) (i * m / 4)) in
    let delta = float_of_int ((i * m) - (j * 4)) in
    ((s.(j - 1) *. (4. -. delta)) +. (s.(j) *. delta)) /. 4.
  in
  (cut 1, cut 2, cut 3)

let iqr_frac a =
  let q1, q2, q3 = quartiles a in
  (q3 -. q1) /. q2

let spread a =
  if Array.length a < 2 then 0.
  else
    let s = sorted a in
    let lo = s.(0) and hi = s.(Array.length s - 1) in
    if lo <= 0. then infinity else (hi /. lo) -. 1.
