type t = {
  lo : float;
  buckets_per_decade : int;
  decades : int;
  hi : float;               (* lo * 10^decades, cached *)
  log_lo : float;           (* log10 lo, cached *)
  counts : int array;       (* length decades * buckets_per_decade *)
  mutable underflow : int;
  mutable overflow : int;
  mutable sum : float;
  mutable count : int;
}

let create ?(lo = 1e-9) ?(decades = 24) ?(buckets_per_decade = 20) () =
  if not (lo > 0.0 && Float.is_finite lo) then
    invalid_arg "Quantile_histogram.create: lo must be finite and > 0";
  if decades <= 0 then invalid_arg "Quantile_histogram.create: decades <= 0";
  if buckets_per_decade <= 0 then
    invalid_arg "Quantile_histogram.create: buckets_per_decade <= 0";
  if decades * buckets_per_decade > 1 lsl 20 then
    invalid_arg "Quantile_histogram.create: too many buckets";
  { lo; buckets_per_decade; decades;
    hi = lo *. (10.0 ** float_of_int decades);
    log_lo = Float.log10 lo;
    counts = Array.make (decades * buckets_per_decade) 0;
    underflow = 0; overflow = 0; sum = 0.0; count = 0 }

let lo t = t.lo
let hi t = t.hi
let buckets_per_decade t = t.buckets_per_decade
let decades t = t.decades
let buckets t = Array.length t.counts
let underflow t = t.underflow
let overflow t = t.overflow
let sum t = t.sum
let count t = t.count
let counts t = Array.copy t.counts

let bucket_index t x =
  if x < t.lo then -1
  else if x >= t.hi then Array.length t.counts
  else
    (* Roundoff in log10 can land an edge value one bucket off the exact
       [log10 (x/lo) * bpd] quotient; any in-range bucket keeps the
       relative-error bound, but clamp so in-range values never leak
       into the out-of-range buckets. *)
    let i =
      int_of_float
        ((Float.log10 x -. t.log_lo) *. float_of_int t.buckets_per_decade)
    in
    max 0 (min (Array.length t.counts - 1) i)

let observe t x =
  t.count <- t.count + 1;
  if Float.is_finite x then begin
    t.sum <- t.sum +. x;
    let i = bucket_index t x in
    if i < 0 then t.underflow <- t.underflow + 1
    else if i >= Array.length t.counts then t.overflow <- t.overflow + 1
    else t.counts.(i) <- t.counts.(i) + 1
  end

let bucket_lower t i =
  10.0 ** (t.log_lo +. (float_of_int i /. float_of_int t.buckets_per_decade))

let bucket_mid t i =
  10.0
  ** (t.log_lo +. ((float_of_int i +. 0.5) /. float_of_int t.buckets_per_decade))

let max_rel_error_of ~buckets_per_decade =
  (10.0 ** (0.5 /. float_of_int buckets_per_decade)) -. 1.0

let max_rel_error t = max_rel_error_of ~buckets_per_decade:t.buckets_per_decade

let quantile t q =
  if not (Float.is_finite q && q >= 0.0 && q <= 1.0) then
    invalid_arg "Quantile_histogram.quantile: q outside [0, 1]";
  let n = t.underflow + Array.fold_left ( + ) 0 t.counts + t.overflow in
  if n = 0 then nan
  else begin
    (* Rank of the empirical q-quantile: the smallest observation with at
       least [ceil (q * n)] observations at or below it (rank 1 for
       q = 0), walked through the cumulative counts.  Integer ranks over
       integer counts: deterministic on every platform. *)
    let rank = max 1 (min n (int_of_float (Float.ceil (q *. float_of_int n)))) in
    let rec walk i cum =
      if i = Array.length t.counts then t.hi
      else
        let cum = cum + t.counts.(i) in
        if rank <= cum then bucket_mid t i else walk (i + 1) cum
    in
    if rank <= t.underflow then t.lo else walk 0 t.underflow
  end

let copy t = { t with counts = Array.copy t.counts }

let same_shape a b =
  a.lo = b.lo
  && a.buckets_per_decade = b.buckets_per_decade
  && a.decades = b.decades

let merge_into ~into src =
  if not (same_shape into src) then
    invalid_arg "Quantile_histogram.merge_into: shape mismatch";
  Array.iteri (fun i c -> into.counts.(i) <- into.counts.(i) + c) src.counts;
  into.underflow <- into.underflow + src.underflow;
  into.overflow <- into.overflow + src.overflow;
  into.sum <- into.sum +. src.sum;
  into.count <- into.count + src.count

let equal a b =
  same_shape a b && a.counts = b.counts && a.underflow = b.underflow
  && a.overflow = b.overflow && a.sum = b.sum && a.count = b.count
