let pi = 4.0 *. atan 1.0
let max_gaussian_arg = 38.0

let sigma_m_sq ~t_c ~t_m ~gamma t =
  ((2.0 *. t_c) +. t_m) /. (t_c +. t_m)
  -. (2.0 *. t_c /. (t_c +. t_m) *. exp (-.gamma *. t))

let residual_term ~t_c ~t_m ~alpha_ce =
  (* lim of the fluctuation-only overflow: Q(alpha sqrt(1 + T_c/T_m)).
     With no memory the estimator fluctuates with the traffic itself and
     the term degenerates to Q(inf) = 0 (all the probability lives in the
     hitting term). *)
  if t_m = 0.0 then 0.0
  else begin
    let z = alpha_ce *. sqrt (1.0 +. (t_c /. t_m)) in
    if z > max_gaussian_arg then 0.0 else Mbac_stats.Gaussian.q z
  end

let overflow ~p ~t_m ~alpha_ce =
  if t_m < 0.0 then invalid_arg "Memory_formula.overflow: requires t_m >= 0";
  let t_c = p.Params.t_c in
  let gamma = Params.gamma p in
  let prefactor = gamma *. t_c /. (t_c +. t_m) in
  let integrand t =
    let s2 = sigma_m_sq ~t_c ~t_m ~gamma t in
    if s2 <= 0.0 then 0.0
    else begin
      let s = sqrt s2 in
      let z = (alpha_ce +. t) /. s in
      if z > max_gaussian_arg then 0.0
      else (alpha_ce +. t) /. (s2 *. s) *. Mbac_stats.Gaussian.phi z
    end
  in
  let hitting =
    (* abs_tol 0: p_f spans hundreds of decades, and the default
       absolute floor would stop the refinement long before the
       requested relative accuracy at small probabilities.  The t = u^2
       substitution flattens the t^{-1/2} boundary layer the integrand
       develops near t = 0 when sigma_m^2(0) = T_m/(T_c+T_m) is small
       (memoryless or T_m << T_c), which otherwise defeats the
       quadrature's error estimate at small alpha. *)
    Mbac_telemetry.Profile.span "memory_formula.overflow" (fun () ->
        prefactor
        *. Mbac_numerics.Integrate.semi_infinite ~rel_tol:1e-9 ~abs_tol:0.0
             (fun u -> 2.0 *. u *. integrand (u *. u))
             ~lo:0.0)
  in
  hitting +. residual_term ~t_c ~t_m ~alpha_ce

let overflow_closed_form ~p ~t_m ~alpha_ce =
  if t_m < 0.0 then
    invalid_arg "Memory_formula.overflow_closed_form: requires t_m >= 0";
  let t_c = p.Params.t_c in
  let gamma = Params.gamma p in
  let a = t_c +. t_m and b = (2.0 *. t_c) +. t_m in
  let exponent = -.(a /. (2.0 *. b)) *. alpha_ce *. alpha_ce in
  let hitting =
    gamma *. t_c /. sqrt (a *. b) /. sqrt (2.0 *. pi) *. exp exponent
  in
  hitting +. residual_term ~t_c ~t_m ~alpha_ce

let overflow_memoryless ~p ~alpha_ce = overflow ~p ~t_m:0.0 ~alpha_ce

let overflow_memoryless_closed_form ~p ~alpha_ce =
  Params.gamma p /. (2.0 *. sqrt pi) *. exp (-0.25 *. alpha_ce *. alpha_ce)

let overflow_memoryless_in_flow_params ~p ~alpha_ce =
  let open Params in
  t_h_tilde p /. (2.0 *. p.t_c)
  *. (p.sigma *. alpha_ce /. p.mu)
  *. Mbac_stats.Gaussian.q (alpha_ce /. sqrt 2.0)

let estimator_error_variance ~t_c ~t_m = t_c /. (t_c +. t_m)

(* ---------- Memoized evaluation of eqn (37) ---------- *)

(* [overflow] reads its parameters only through T_c and gamma, so
   (t_c, gamma, t_m, alpha_ce) keys the exact value.  The cache is
   domain-local: the parallel replication engine runs analysis closures
   on worker domains, and a shared Hashtbl would race. *)
let cache_key ~p ~t_m ~alpha_ce =
  (p.Params.t_c, Params.gamma p, t_m, alpha_ce)

let cache_max_entries = 4096

let point_cache : (float * float * float * float, float) Hashtbl.t Domain.DLS.key
    =
  Domain.DLS.new_key (fun () -> Hashtbl.create 256)

let overflow_cached ~p ~t_m ~alpha_ce =
  let tbl = Domain.DLS.get point_cache in
  let key = cache_key ~p ~t_m ~alpha_ce in
  match Hashtbl.find_opt tbl key with
  | Some v -> v
  | None ->
      let v = overflow ~p ~t_m ~alpha_ce in
      (* Sweeps revisit a bounded grid; a runaway keyspace means the
         caller is scanning, not sweeping, so start over rather than
         grow without bound. *)
      if Hashtbl.length tbl >= cache_max_entries then Hashtbl.reset tbl;
      Hashtbl.add tbl key v;
      v
