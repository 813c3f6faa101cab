type params = Source.ou = { mu : float; sigma : float; t_c : float; dt : float }

let default_params ~mu = { mu; sigma = 0.3 *. mu; t_c = 1.0; dt = 0.1 }
let create = Source.ou
