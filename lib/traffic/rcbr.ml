type params = Source.rcbr = { mu : float; sigma : float; t_c : float }

let default_params ~mu = { mu; sigma = 0.3 *. mu; t_c = 1.0 }
let create = Source.rcbr
let autocorrelation p t = exp (-.abs_float t /. p.t_c)
