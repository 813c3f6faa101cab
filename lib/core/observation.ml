(* All-float record: with [n] stored as a float the record has a flat
   unboxed layout, so storing into any field allocates nothing and
   reading one never chases a box.  [n] is always integral and far below
   2^53, so the stored value is exact and every comparison/derived
   statistic is bit-for-bit what the int representation gave.  Its
   owner refreshes it in place, once per simulation event or
   measurement pass. *)
type t = {
  mutable now : float;
  mutable n : float;
  mutable sum_rate : float;
  mutable sum_sq : float;
}

let[@inline] make ~now ~n ~sum_rate ~sum_sq =
  if n < 0 then invalid_arg "Observation.make: negative flow count";
  if n = 0 && (sum_rate <> 0.0 || sum_sq <> 0.0) then
    invalid_arg "Observation.make: nonzero sums with zero flows";
  { now; n = float_of_int n; sum_rate; sum_sq }

let copy t = { t with now = t.now }

let[@inline] count t = int_of_float t.n
