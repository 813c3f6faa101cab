let sample_path rng make ~n_sources ~horizon ~dt =
  if n_sources <= 0 then invalid_arg "Aggregate.sample_path: n_sources <= 0";
  if dt <= 0.0 || horizon <= 0.0 then
    invalid_arg "Aggregate.sample_path: requires dt > 0 and horizon > 0";
  let sources =
    Array.init n_sources (fun _ -> make (Mbac_stats.Rng.split rng) ~start:0.0)
  in
  let n_samples = int_of_float (horizon /. dt) + 1 in
  let out = Array.make n_samples 0.0 in
  (* Advance all sources in lock-step over the sample grid; each source
     fires its own pending changes up to the sample time. *)
  for i = 0 to n_samples - 1 do
    let t = float_of_int i *. dt in
    Array.iter (fun s -> Source.fire_until s ~upto:t) sources;
    out.(i) <- Array.fold_left (fun acc s -> acc +. Source.rate s) 0.0 sources
  done;
  out
