let[@inline] uniform rng ~lo ~hi =
  if hi < lo then invalid_arg "Sample.uniform: requires lo <= hi";
  lo +. ((hi -. lo) *. Rng.float rng)

let bernoulli rng ~p = Rng.float rng < p

(* Inlined: drawn once or twice per simulation event, and a non-inlined
   call would box both the [mean] argument and the result. *)
let[@inline] exponential rng ~mean =
  if mean <= 0.0 then invalid_arg "Sample.exponential: requires mean > 0";
  -.mean *. log (Rng.float_pos rng)

(* Marsaglia polar method; generates pairs but we keep it stateless by
   discarding the second variate (cheap relative to the simulation cost,
   and avoids hidden state in the sampler).  The first attempt accepts
   with probability pi/4, so it is unrolled into an [@inline] wrapper:
   the common case then compiles to straight-line float code in the
   caller, and only a rejection pays the boxed return of the recursive
   retry path.  Both paths consume the RNG identically, so unrolling
   does not move any stream. *)
let rec standard_gaussian_retry rng =
  let u = (2.0 *. Rng.float rng) -. 1.0 in
  let v = (2.0 *. Rng.float rng) -. 1.0 in
  let s = (u *. u) +. (v *. v) in
  if s >= 1.0 || s = 0.0 then standard_gaussian_retry rng
  else u *. sqrt (-2.0 *. log s /. s)

let[@inline] standard_gaussian rng =
  let u = (2.0 *. Rng.float rng) -. 1.0 in
  let v = (2.0 *. Rng.float rng) -. 1.0 in
  let s = (u *. u) +. (v *. v) in
  if s >= 1.0 || s = 0.0 then standard_gaussian_retry rng
  else u *. sqrt (-2.0 *. log s /. s)

let[@inline] gaussian rng ~mu ~sigma =
  if sigma < 0.0 then invalid_arg "Sample.gaussian: requires sigma >= 0";
  mu +. (sigma *. standard_gaussian rng)

(* Cold continuation: re-draws after a negative first sample, keeping
   the common all-positive case of [gaussian_truncated_nonneg] a
   non-recursive, inlinable straight line. *)
let rec truncated_retry rng ~mu ~sigma n =
  if n > 10_000 then mu (* pathological sigma/mu; fall back to the mean *)
  else
    let x = gaussian rng ~mu ~sigma in
    if x >= 0.0 then x else truncated_retry rng ~mu ~sigma (n + 1)

let[@inline] gaussian_truncated_nonneg rng ~mu ~sigma =
  if mu < 0.0 then
    invalid_arg "Sample.gaussian_truncated_nonneg: requires mu >= 0";
  let x = gaussian rng ~mu ~sigma in
  if x >= 0.0 then x else truncated_retry rng ~mu ~sigma 1

let lognormal rng ~mu_log ~sigma_log = exp (gaussian rng ~mu:mu_log ~sigma:sigma_log)

let lognormal_of_moments rng ~mean ~std =
  if mean <= 0.0 then invalid_arg "Sample.lognormal_of_moments: mean <= 0";
  let cv2 = (std /. mean) ** 2.0 in
  let sigma_log = sqrt (log (1.0 +. cv2)) in
  let mu_log = log mean -. (0.5 *. sigma_log *. sigma_log) in
  lognormal rng ~mu_log ~sigma_log

let categorical rng ~weights =
  let n = Array.length weights in
  if n = 0 then invalid_arg "Sample.categorical: empty weights";
  let total = Array.fold_left (fun acc w ->
      if w < 0.0 then invalid_arg "Sample.categorical: negative weight"
      else acc +. w) 0.0 weights
  in
  if total <= 0.0 then invalid_arg "Sample.categorical: all-zero weights";
  let u = Rng.float rng *. total in
  let rec find i acc =
    if i = n - 1 then i
    else
      let acc = acc +. weights.(i) in
      if u < acc then i else find (i + 1) acc
  in
  find 0 0.0
