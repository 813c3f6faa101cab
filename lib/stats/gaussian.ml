let pi = 4.0 *. atan 1.0
let sqrt2 = sqrt 2.0
let inv_sqrt_2pi = 1.0 /. sqrt (2.0 *. pi)

let phi x = inv_sqrt_2pi *. exp (-0.5 *. x *. x)
let cdf x = 0.5 *. Special.erfc (-.x /. sqrt2)
let q x = 0.5 *. Special.erfc (x /. sqrt2)
let log_q x = log 0.5 +. Special.log_erfc (x /. sqrt2)
let q_tail_approx x = phi x /. x

(* Acklam's rational approximation to the inverse normal cdf (abs error
   ~1.15e-9), then Halley refinement steps using the accurate [q]. *)
let acklam_norminv p =
  let a =
    [| -3.969683028665376e+01; 2.209460984245205e+02; -2.759285104469687e+02;
       1.383577518672690e+02; -3.066479806614716e+01; 2.506628277459239e+00 |]
  in
  let b =
    [| -5.447609879822406e+01; 1.615858368580409e+02; -1.556989798598866e+02;
       6.680131188771972e+01; -1.328068155288572e+01 |]
  in
  let c =
    [| -7.784894002430293e-03; -3.223964580411365e-01; -2.400758277161838e+00;
       -2.549732539343734e+00; 4.374664141464968e+00; 2.938163982698783e+00 |]
  in
  let d =
    [| 7.784695709041462e-03; 3.224671290700398e-01; 2.445134137142996e+00;
       3.754408661907416e+00 |]
  in
  let tail_value u =
    let num =
      ((((((c.(0) *. u) +. c.(1)) *. u) +. c.(2)) *. u +. c.(3)) *. u +. c.(4))
      *. u +. c.(5)
    in
    let den =
      ((((d.(0) *. u) +. d.(1)) *. u +. d.(2)) *. u +. d.(3)) *. u +. 1.0
    in
    num /. den
  in
  let p_low = 0.02425 in
  let p_high = 1.0 -. p_low in
  if p < p_low then tail_value (sqrt (-2.0 *. log p))
  else if p <= p_high then begin
    let u = p -. 0.5 in
    let r = u *. u in
    let num =
      ((((((a.(0) *. r) +. a.(1)) *. r +. a.(2)) *. r +. a.(3)) *. r +. a.(4))
       *. r +. a.(5))
      *. u
    in
    let den =
      (((((b.(0) *. r) +. b.(1)) *. r +. b.(2)) *. r +. b.(3)) *. r +. b.(4))
      *. r +. 1.0
    in
    num /. den
  end
  else -.tail_value (sqrt (-2.0 *. log (1.0 -. p)))

let rec q_inv p =
  if not (p > 0.0 && p < 1.0) then
    invalid_arg "Gaussian.q_inv: requires 0 < p < 1";
  if p > 0.5 then
    (* Reflect into the accurate tail: 1 - p is exact for p in [0.5, 1]
       (Sterbenz), while q(x) - p would cancel catastrophically. *)
    -.q_inv (1.0 -. p)
  else begin
    (* q x = p  <=>  norminv(p) = -x. *)
    let x0 = -.acklam_norminv p in
    (* Halley step on f(x) = q(x) - p, with f' = -phi and f'' = x phi:
       u = (q x - p)/(-phi x);  x <- x - u / (1 + u*x/2). *)
    let refine x =
      let e = q x -. p in
      if e = 0.0 then x
      else
        let u = e /. -.phi x in
        x -. (u /. (1.0 +. (u *. x /. 2.0)))
    in
    refine (refine x0)
  end

let overflow_probability ~capacity ~mean ~std =
  if std < 0.0 then invalid_arg "Gaussian.overflow_probability: std < 0"
  else if std = 0.0 then if mean > capacity then 1.0 else 0.0
  else q ((capacity -. mean) /. std)
