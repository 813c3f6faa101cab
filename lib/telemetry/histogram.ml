type layout =
  | Linear of { lo : float; hi : float; bins : int }
  | Log of { lo : float; decades : int; buckets_per_decade : int }

type t = {
  layout : layout;
  lo : float;
  hi : float;
  base : float;  (* cached: the bucket width (linear) or log10 lo (log) *)
  counts : int array;
  mutable underflow : int;
  mutable overflow : int;
  (* one slot, stored flat: adding to it allocates nothing, where a
     mutable float field of this mixed record would box every sum *)
  sum : Float.Array.t;
  mutable count : int;
}

let default_log = Log { lo = 1e-9; decades = 24; buckets_per_decade = 20 }

let create layout =
  let make ~lo ~hi ~base ~buckets =
    { layout; lo; hi; base; counts = Array.make buckets 0;
      underflow = 0; overflow = 0; sum = Float.Array.make 1 0.0; count = 0 }
  in
  match layout with
  | Linear { lo; hi; bins } ->
      if not (hi > lo) then invalid_arg "Histogram.create: hi <= lo";
      if bins <= 0 then invalid_arg "Histogram.create: bins <= 0";
      make ~lo ~hi ~base:((hi -. lo) /. float_of_int bins) ~buckets:bins
  | Log { lo; decades; buckets_per_decade } ->
      if not (lo > 0.0 && Float.is_finite lo) then
        invalid_arg "Histogram.create: lo must be finite and > 0";
      if decades <= 0 then invalid_arg "Histogram.create: decades <= 0";
      if buckets_per_decade <= 0 then
        invalid_arg "Histogram.create: buckets_per_decade <= 0";
      if decades * buckets_per_decade > 1 lsl 20 then
        invalid_arg "Histogram.create: too many buckets";
      make ~lo ~hi:(lo *. (10.0 ** float_of_int decades))
        ~base:(Float.log10 lo) ~buckets:(decades * buckets_per_decade)

let layout h = h.layout
let lo h = h.lo
let hi h = h.hi
let buckets h = Array.length h.counts
let counts h = Array.copy h.counts
let underflow h = h.underflow
let overflow h = h.overflow
let sum h = Float.Array.get h.sum 0
let count h = h.count

(* [bucket_index] and [observe] are inlined: out of line, the float
   argument would be boxed on every observation. *)
let[@inline] bucket_index h x =
  let last = Array.length h.counts - 1 in
  if x < h.lo then -1
  else if x >= h.hi then last + 1
  else
    match h.layout with
    | Linear _ ->
        (* Roundoff can push the quotient to [bins] for x just under hi;
           clamp so in-range values never leak into overflow. *)
        min last (int_of_float ((x -. h.lo) /. h.base))
    | Log { buckets_per_decade; _ } ->
        (* Roundoff in log10 can land an edge value one bucket off the
           exact [log10 (x/lo) * bpd] quotient; any in-range bucket keeps
           the relative-error bound, but clamp so in-range values never
           leak into the out-of-range buckets. *)
        max 0
          (min last
             (int_of_float
                ((Float.log10 x -. h.base)
                *. float_of_int buckets_per_decade)))

let[@inline] observe h x =
  h.count <- h.count + 1;
  if Float.is_finite x then begin
    Float.Array.unsafe_set h.sum 0 (Float.Array.unsafe_get h.sum 0 +. x);
    let i = bucket_index h x in
    if i < 0 then h.underflow <- h.underflow + 1
    else if i >= Array.length h.counts then h.overflow <- h.overflow + 1
    else h.counts.(i) <- h.counts.(i) + 1
  end

let observe_fixed h n ~scale = observe h (float_of_int n /. float_of_int scale)

(* The point a fraction [f] of the way through bucket [i], along the
   layout's own axis: [f = 0.] is the lower bound, [f = 0.5] the
   midpoint (arithmetic or geometric). *)
let bucket_point h i f =
  match h.layout with
  | Linear _ -> h.lo +. ((float_of_int i +. f) *. h.base)
  | Log { buckets_per_decade; _ } ->
      10.0
      ** (h.base +. ((float_of_int i +. f) /. float_of_int buckets_per_decade))

let bucket_lower h i = bucket_point h i 0.0
let bucket_mid h i = bucket_point h i 0.5

let max_rel_error h =
  match h.layout with
  | Log { buckets_per_decade; _ } ->
      (10.0 ** (0.5 /. float_of_int buckets_per_decade)) -. 1.0
  | Linear _ -> nan

let quantile h q =
  if not (Float.is_finite q && q >= 0.0 && q <= 1.0) then
    invalid_arg "Histogram.quantile: q outside [0, 1]";
  let n = h.underflow + Array.fold_left ( + ) 0 h.counts + h.overflow in
  if n = 0 then nan
  else begin
    (* Rank of the empirical q-quantile: the smallest observation with at
       least [ceil (q * n)] observations at or below it (rank 1 for
       q = 0), walked through the cumulative counts.  Integer ranks over
       integer counts: deterministic on every platform. *)
    let rank = max 1 (min n (int_of_float (Float.ceil (q *. float_of_int n)))) in
    let rec walk i cum =
      if i = Array.length h.counts then h.hi
      else
        let cum = cum + h.counts.(i) in
        if rank <= cum then bucket_mid h i else walk (i + 1) cum
    in
    if rank <= h.underflow then h.lo else walk 0 h.underflow
  end

let copy h =
  { h with counts = Array.copy h.counts; sum = Float.Array.copy h.sum }

let merge_into ~into src =
  if into.layout <> src.layout then
    invalid_arg "Histogram.merge_into: layout mismatch";
  Array.iteri (fun i c -> into.counts.(i) <- into.counts.(i) + c) src.counts;
  into.underflow <- into.underflow + src.underflow;
  into.overflow <- into.overflow + src.overflow;
  Float.Array.set into.sum 0 (sum into +. sum src);
  into.count <- into.count + src.count

let equal a b =
  a.layout = b.layout && a.counts = b.counts && a.underflow = b.underflow
  && a.overflow = b.overflow && sum a = sum b && a.count = b.count
