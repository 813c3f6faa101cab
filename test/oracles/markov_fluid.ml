type params = { generator : float array array; rates : float array }

let validate { generator; rates } =
  let k = Array.length generator in
  if k = 0 then invalid_arg "Markov_fluid: empty generator";
  if Array.length rates <> k then
    invalid_arg "Markov_fluid: rates/generator size mismatch";
  Array.iteri
    (fun i row ->
      if Array.length row <> k then
        invalid_arg "Markov_fluid: non-square generator";
      let sum = ref 0.0 in
      Array.iteri
        (fun j v ->
          if i <> j && v < 0.0 then
            invalid_arg "Markov_fluid: negative off-diagonal rate";
          sum := !sum +. v)
        row;
      if abs_float !sum > 1e-9 then
        invalid_arg "Markov_fluid: generator rows must sum to 0")
    generator

let stationary p =
  validate p;
  Linalg.stationary_distribution p.generator

let mean p =
  let pi = stationary p in
  let acc = ref 0.0 in
  Array.iteri (fun i w -> acc := !acc +. (w *. p.rates.(i))) pi;
  !acc

let variance p =
  let pi = stationary p in
  let m = mean p in
  let acc = ref 0.0 in
  Array.iteri
    (fun i w -> acc := !acc +. (w *. (p.rates.(i) -. m) *. (p.rates.(i) -. m)))
    pi;
  !acc

let create rng p ~start =
  validate p;
  let k = Array.length p.generator in
  let pi = stationary p in
  let hold_rate i = -.p.generator.(i).(i) in
  let schedule rng now i =
    let r = hold_rate i in
    if r <= 0.0 then now +. 1e30 (* absorbing state: effectively never *)
    else now +. Mbac_stats.Sample.exponential rng ~mean:(1.0 /. r)
  in
  (* The chain's state is the source's phase. *)
  let step rng i st ~now =
    (* choose the next state proportionally to the off-diagonal rates *)
    let weights =
      Array.init k (fun j -> if j = i then 0.0 else p.generator.(i).(j))
    in
    let j = Mbac_stats.Sample.categorical rng ~weights in
    let next_change = schedule rng now j in
    Mbac_traffic.Source.State.set st ~rate:p.rates.(j) ~next_change;
    j
  in
  let state = Mbac_stats.Sample.categorical rng ~weights:pi in
  let next_change = schedule rng start state in
  Mbac_traffic.Source.custom rng ~phase:state ~rate:p.rates.(state)
    ~next_change step
