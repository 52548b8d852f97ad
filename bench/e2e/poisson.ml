let schedule ~seed ~rate ~count =
  if not (rate > 0.) then invalid_arg "Poisson.schedule: rate must be positive";
  if count < 0 then invalid_arg "Poisson.schedule: negative count";
  let rng = Rng.create seed in
  let t = ref 0. in
  Array.init count (fun _ ->
      t := !t +. Rng.exponential rng ~rate;
      !t)
