(* Log-scale histogram.

   Fixed layout shared by every histogram so merges never need
   reconciliation: [buckets_per_decade] geometric buckets per decade from
   10^lo_decade up to 10^hi_decade, plus an underflow bucket 0 and an
   overflow bucket [n_buckets - 1].  Bucket i (1 <= i <= regular) spans
   [bound (i-1), bound i) with bound i = 10^(lo_decade + i/bpd). *)

let buckets_per_decade = 8

let lo_decade = -9 (* 1 ns, when observations are seconds *)

let hi_decade = 9

let regular_buckets = buckets_per_decade * (hi_decade - lo_decade)

let n_buckets = regular_buckets + 2

(* Lower bound of regular bucket [i] (1-based among regular buckets). *)
let bucket_lower i =
  10. ** (float_of_int lo_decade
         +. (float_of_int (i - 1) /. float_of_int buckets_per_decade))

let bucket_upper i = bucket_lower (i + 1)

type t = {
  buckets : int array; (* length n_buckets *)
  mutable hcount : int;
  mutable hsum : float;
  mutable hmin : float;
  mutable hmax : float;
}

let bucket_index v =
  if v < bucket_lower 1 then 0
  else if v >= bucket_lower (regular_buckets + 1) then n_buckets - 1
  else
    let idx =
      1
      + int_of_float
          (Float.floor
             (float_of_int buckets_per_decade
             *. (Float.log10 v -. float_of_int lo_decade)))
    in
    (* log10 rounding at exact bucket boundaries can land one off. *)
    let idx = Int.max 1 (Int.min regular_buckets idx) in
    if v < bucket_lower idx then idx - 1
    else if v >= bucket_upper idx then idx + 1
    else idx

let create () =
  {
    buckets = Array.make n_buckets 0;
    hcount = 0;
    hsum = 0.;
    hmin = infinity;
    hmax = neg_infinity;
  }

let observe h v =
  let v = Float.max 0. v in
  let i = bucket_index v in
  h.buckets.(i) <- h.buckets.(i) + 1;
  h.hcount <- h.hcount + 1;
  h.hsum <- h.hsum +. v;
  if v < h.hmin then h.hmin <- v;
  if v > h.hmax then h.hmax <- v

let hist_count h = h.hcount

let hist_sum h = h.hsum

let hist_min h = if h.hcount = 0 then Float.nan else h.hmin

let hist_max h = if h.hcount = 0 then Float.nan else h.hmax

let merge_into ~into src =
  for i = 0 to n_buckets - 1 do
    into.buckets.(i) <- into.buckets.(i) + src.buckets.(i)
  done;
  into.hcount <- into.hcount + src.hcount;
  into.hsum <- into.hsum +. src.hsum;
  if src.hcount > 0 then begin
    if src.hmin < into.hmin then into.hmin <- src.hmin;
    if src.hmax > into.hmax then into.hmax <- src.hmax
  end

(* Percentile by geometric interpolation inside the owning bucket, clamped
   to the observed [hmin, hmax] so a single observation reports itself
   exactly and no estimate escapes the data's range. *)
let percentile h p =
  if h.hcount = 0 then Float.nan
  else begin
    let p = Float.max 0. (Float.min 100. p) in
    let target =
      Int.max 1
        (int_of_float (Float.ceil (p /. 100. *. float_of_int h.hcount)))
    in
    let rec find i cum =
      if i >= n_buckets then (n_buckets - 1, h.hcount)
      else
        let cum' = cum + h.buckets.(i) in
        if cum' >= target then (i, cum) else find (i + 1) cum'
    in
    let i, cum_before = find 0 0 in
    let lo, hi =
      if i = 0 then (h.hmin, Float.min h.hmax (bucket_lower 1))
      else if i = n_buckets - 1 then (bucket_lower (regular_buckets + 1), h.hmax)
      else (bucket_lower i, bucket_upper i)
    in
    let lo = Float.max lo h.hmin and hi = Float.min hi h.hmax in
    let est =
      if h.buckets.(i) = 0 || lo <= 0. || hi <= lo then Float.max lo hi
      else
        let frac =
          (float_of_int (target - cum_before) -. 0.5)
          /. float_of_int h.buckets.(i)
        in
        lo *. ((hi /. lo) ** Float.max 0. (Float.min 1. frac))
    in
    Float.max h.hmin (Float.min h.hmax est)
  end
