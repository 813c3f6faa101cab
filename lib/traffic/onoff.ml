type params = Source.onoff = { peak : float; mean_on : float; mean_off : float }

let p_on p = p.mean_on /. (p.mean_on +. p.mean_off)
let mean p = p.peak *. p_on p

let variance p =
  let q = p_on p in
  p.peak *. p.peak *. q *. (1.0 -. q)

let autocorrelation p t =
  exp (-.abs_float t *. ((1.0 /. p.mean_on) +. (1.0 /. p.mean_off)))

let create = Source.onoff
