(* Per-event mutable floats live in their own all-float record so the
   stores stay unboxed. *)
type hot = {
  mutable time : float;
  mutable next_sample : float; (* absolute time of the next grid point *)
}

type t = {
  capacity : float;
  warmup : float;
  batch : Mbac_stats.Batch_means.t;
  load_stats : Mbac_stats.Welford.Weighted.t;
  hot : hot;
  sample_spacing : float; (* infinity = point sampling disabled *)
  mutable samples : int;
  mutable sample_hits : int;
}

let create ?sample_spacing ~capacity ~warmup ~batch_length () =
  (* [not (x > 0.0)] rather than [x <= 0.0], so NaN is refused too *)
  if not (capacity > 0.0) then invalid_arg "Measurement.create: capacity <= 0";
  if not (warmup >= 0.0) then invalid_arg "Measurement.create: warmup < 0";
  if not (batch_length > 0.0) then
    invalid_arg "Measurement.create: batch_length <= 0";
  (match sample_spacing with
  | Some s when not (s > 0.0) ->
      invalid_arg "Measurement.create: sample_spacing <= 0"
  | Some _ | None -> ());
  { capacity; warmup;
    batch = Mbac_stats.Batch_means.create ~batch_length;
    load_stats = Mbac_stats.Welford.Weighted.create ();
    hot =
      { time = 0.0;
        next_sample =
          (match sample_spacing with Some s -> warmup +. s | None -> infinity) };
    sample_spacing =
      (match sample_spacing with Some s -> s | None -> infinity);
    samples = 0;
    sample_hits = 0 }

(* Point samples falling inside [t0, t1) see this constant load.  Kept
   out of line (Closure does not inline functions containing loops); it
   runs at most once per sample_spacing of simulated time. *)
let sample_loop t ~t0 ~t1 ~load =
  while t.hot.next_sample < t1 do
    if t.hot.next_sample >= t0 then begin
      t.samples <- t.samples + 1;
      if load > t.capacity then t.sample_hits <- t.sample_hits + 1
    end;
    t.hot.next_sample <- t.hot.next_sample +. t.sample_spacing
  done

let[@inline] record t ~t0 ~t1 ~load =
  if t1 > t0 then begin
    if t.hot.next_sample < t1 then sample_loop t ~t0 ~t1 ~load;
    let t0 = Float.max t0 t.warmup in
    if t1 > t0 then begin
      let w = t1 -. t0 in
      let indicator = if load > t.capacity then 1.0 else 0.0 in
      Mbac_stats.Batch_means.add t.batch ~weight:w indicator;
      Mbac_stats.Welford.Weighted.add t.load_stats ~weight:w load;
      t.hot.time <- t.hot.time +. w
    end
  end

let copy t =
  { capacity = t.capacity; warmup = t.warmup;
    batch = Mbac_stats.Batch_means.copy t.batch;
    load_stats = Mbac_stats.Welford.Weighted.copy t.load_stats;
    hot = { time = t.hot.time; next_sample = t.hot.next_sample };
    sample_spacing = t.sample_spacing;
    samples = t.samples;
    sample_hits = t.sample_hits }

let measured_time t = t.hot.time

let point_fraction t =
  if t.samples = 0 then nan
  else float_of_int t.sample_hits /. float_of_int t.samples

let point_samples t = t.samples
let overflow_fraction t = Mbac_stats.Batch_means.mean t.batch
let load_mean t = Mbac_stats.Welford.Weighted.mean t.load_stats
let load_std t = Mbac_stats.Welford.Weighted.std t.load_stats

let gaussian_fit_overflow t =
  let std = load_std t in
  if std <= 0.0 then if load_mean t > t.capacity then 1.0 else 0.0
  else
    Mbac_stats.Gaussian.overflow_probability ~capacity:t.capacity
      ~mean:(load_mean t) ~std

let relative_half_width t ~confidence =
  Mbac_stats.Batch_means.relative_half_width t.batch ~confidence

let batches t = Mbac_stats.Batch_means.completed_batches t.batch

type verdict =
  | Running
  | Converged of { p_f : float; ci_rel : float }
  | Below_target of { p_f_fit : float; upper_bound : float }

let check_stop ?(confidence = 0.95) ?(rel_ci = 0.2) ?(min_batches = 10) t
    ~target =
  if batches t < min_batches then Running
  else begin
    let mean = overflow_fraction t in
    let hw = Mbac_stats.Batch_means.half_width t.batch ~confidence in
    if mean > 0.0 && hw /. mean <= rel_ci then
      Converged { p_f = mean; ci_rel = hw /. mean }
    else if mean +. hw <= target /. 100.0 then
      Below_target
        { p_f_fit = gaussian_fit_overflow t; upper_bound = mean +. hw }
    else Running
  end

let final_estimate t ~target =
  let mean = overflow_fraction t in
  if Float.is_nan mean then (gaussian_fit_overflow t, `Gaussian_fit)
  else if mean > 0.0 && mean > target /. 100.0 then (mean, `Direct)
  else if mean > 0.0 then (mean, `Direct)
  else (gaussian_fit_overflow t, `Gaussian_fit)
