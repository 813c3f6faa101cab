(* Inlined: one call per admission decision (per simulation event); the
   four float arguments would otherwise box at the call boundary. *)
let[@inline] admissible_real ~capacity ~mu ~sigma ~alpha =
  if mu <= 0.0 then invalid_arg "Criterion.admissible_real: requires mu > 0";
  if sigma < 0.0 then invalid_arg "Criterion.admissible_real: requires sigma >= 0";
  if capacity <= 0.0 then 0.0
  else if sigma = 0.0 then capacity /. mu
  else begin
    (* M mu + alpha sigma sqrt M - c = 0; positive root in sqrt M. *)
    let sa = sigma *. alpha in
    let root = (sqrt ((sa *. sa) +. (4.0 *. capacity *. mu)) -. sa) /. (2.0 *. mu) in
    if root <= 0.0 then 0.0 else root *. root
  end

let[@inline] admissible ~capacity ~mu ~sigma ~alpha =
  let m = admissible_real ~capacity ~mu ~sigma ~alpha in
  if m <= 0.0 then 0 else int_of_float m

type spread = Measured | Fixed of float
type rule = { alpha : float; spread : spread }

let check_p_ce p_ce =
  if not (p_ce > 0.0 && p_ce <= 0.5) then
    invalid_arg "Criterion: requires 0 < p_ce <= 0.5"

let gaussian ~p_ce =
  check_p_ce p_ce;
  { alpha = Mbac_stats.Gaussian.q_inv p_ce; spread = Measured }

let adjusted ~alpha_ce = { alpha = alpha_ce; spread = Measured }

let chernoff ~p_ce =
  check_p_ce p_ce;
  { alpha = Effective_bandwidth.gaussian_alpha_of_p p_ce; spread = Measured }

(* M mu + b sqrt M <= c with b = peak sqrt(ln(1/p)/2): the Gaussian
   quadratic with (sigma alpha) |-> b. *)
let hoeffding ~p_ce ~peak =
  check_p_ce p_ce;
  if not (peak > 0.0) then invalid_arg "Criterion: requires peak > 0";
  { alpha = 1.0; spread = Fixed (peak *. sqrt (log (1.0 /. p_ce) /. 2.0)) }

let[@inline] usable (e : Estimator.estimate) = e.mu_hat > 0.0
let[@inline] bootstrap n = n + 1

(* One [admissible] per branch: a float bound by a match whose arms
   differ in boxing would be boxed, allocating on every decision.  The
   estimate comes as its record, not as two floats, so a caller this is
   not inlined into (a build without cross-module inlining) boxes
   nothing either. *)
let[@inline] limit rule ~capacity (e : Estimator.estimate) =
  match rule.spread with
  | Measured ->
      admissible ~capacity ~mu:e.mu_hat ~sigma:(sqrt e.var_hat)
        ~alpha:rule.alpha
  | Fixed spread ->
      admissible ~capacity ~mu:e.mu_hat ~sigma:spread ~alpha:rule.alpha

let overflow_probability ~capacity ~mu ~sigma ~m =
  if m <= 0.0 then 0.0
  else
    Mbac_stats.Gaussian.overflow_probability ~capacity ~mean:(m *. mu)
      ~std:(sigma *. sqrt m)

let m_star_real p =
  admissible_real ~capacity:(Params.capacity p) ~mu:p.Params.mu
    ~sigma:p.Params.sigma ~alpha:(Params.alpha_q p)

let m_star p =
  let m = m_star_real p in
  if m <= 0.0 then 0 else int_of_float m

let m_star_approx p =
  let open Params in
  p.n -. (p.sigma *. alpha_q p /. p.mu *. sqrt p.n)

let peak_rate_count ~capacity ~peak =
  if peak <= 0.0 then invalid_arg "Criterion.peak_rate_count: requires peak > 0";
  if capacity <= 0.0 then 0 else int_of_float (capacity /. peak)
