let perfect p = Criterion.m_star_real p *. p.Params.mu

let certainty_equivalent p ~alpha_ce =
  let open Params in
  capacity p -. (p.sigma *. alpha_ce *. sqrt p.n)

let difference p ~alpha_ce ~alpha_ce' =
  let open Params in
  p.sigma *. sqrt p.n *. (alpha_ce -. alpha_ce')

let robustness_cost p ~t_m =
  let alpha_q = Params.alpha_q p in
  let alpha_ce = Inversion.adjusted_alpha_ce ~t_m p in
  difference p ~alpha_ce ~alpha_ce':alpha_q
