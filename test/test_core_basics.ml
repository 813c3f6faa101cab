(* Params, Observation, Criterion. *)
open Test_util

let mk ?(n = 100.0) ?(p_q = 1e-3) () =
  Mbac.Params.make ~n ~mu:1.0 ~sigma:0.3 ~t_h:1000.0 ~t_c:1.0 ~p_q

let test_params_derived () =
  let p = mk () in
  check_close ~tol:1e-12 "capacity" 100.0 (Mbac.Params.capacity p);
  check_close ~tol:1e-9 "alpha_q" 3.0902323061678132 (Mbac.Params.alpha_q p);
  check_close ~tol:1e-12 "t_h_tilde" 100.0 (Mbac.Params.t_h_tilde p);
  (* beta = mu/(sigma T~_h); gamma = 1/(beta T_c) *)
  check_close ~tol:1e-12 "beta" (1.0 /. 30.0) (Mbac.Params.beta p);
  check_close ~tol:1e-12 "gamma" 30.0 (Mbac.Params.gamma p);
  check_close ~tol:1e-12 "beta*gamma*t_c = 1" 1.0
    (Mbac.Params.beta p *. Mbac.Params.gamma p *. p.Mbac.Params.t_c)

let test_params_validation () =
  Alcotest.check_raises "p_q too big"
    (Invalid_argument "Params.make: requires 0 < p_q <= 0.5") (fun () ->
      ignore (mk ~p_q:0.7 ()));
  Alcotest.check_raises "n" (Invalid_argument "Params.make: requires n > 0")
    (fun () -> ignore (mk ~n:0.0 ()))

let test_with_p_q () =
  let p = mk () in
  let p' = Mbac.Params.with_p_q p 1e-4 in
  check_close ~tol:1e-12 "p_q changed" 1e-4 p'.Mbac.Params.p_q;
  check_close ~tol:1e-12 "rest same" p.Mbac.Params.n p'.Mbac.Params.n

let test_observation_cross_stats () =
  (* flows with rates 1, 2, 3: mean 2, unbiased variance 1 *)
  let obs = Mbac.Observation.make ~now:0.0 ~n:3 ~sum_rate:6.0 ~sum_sq:14.0 in
  check_close ~tol:1e-12 "cross mean" 2.0 (Mbac.Estimator.cross_mean obs);
  check_close ~tol:1e-12 "cross variance" 1.0 (Mbac.Estimator.cross_variance obs)

let test_observation_edges () =
  let obs0 = Mbac.Observation.make ~now:0.0 ~n:0 ~sum_rate:0.0 ~sum_sq:0.0 in
  Alcotest.(check bool) "n=0 mean nan" true
    (Float.is_nan (Mbac.Estimator.cross_mean obs0));
  let obs1 = Mbac.Observation.make ~now:0.0 ~n:1 ~sum_rate:5.0 ~sum_sq:25.0 in
  check_close ~tol:1e-12 "n=1 mean" 5.0 (Mbac.Estimator.cross_mean obs1);
  Alcotest.(check (float 0.0)) "n=1 variance 0" 0.0
    (Mbac.Estimator.cross_variance obs1);
  Alcotest.check_raises "bad n=0 sums"
    (Invalid_argument "Observation.make: nonzero sums with zero flows")
    (fun () ->
      ignore (Mbac.Observation.make ~now:0.0 ~n:0 ~sum_rate:1.0 ~sum_sq:1.0))

let test_criterion_satisfies_target =
  (* The admissible count M must satisfy p_f(M) <= p and p_f(M+1) > p. *)
  qcheck ~count:300 "admissible is the largest count meeting the target"
    QCheck.(triple (float_range 50.0 500.0) (float_range 0.5 2.0)
              (float_range 0.05 0.6))
    (fun (capacity, mu, sigma_ratio) ->
      let sigma = sigma_ratio *. mu in
      let p_target = 1e-3 in
      let alpha = Mbac_stats.Gaussian.q_inv p_target in
      let m = Mbac.Criterion.admissible ~capacity ~mu ~sigma ~alpha in
      let pf k =
        Mbac.Criterion.overflow_probability ~capacity ~mu ~sigma
          ~m:(float_of_int k)
      in
      pf m <= p_target +. 1e-12 && pf (m + 1) > p_target -. 1e-12)

let test_criterion_closed_form_roundtrip =
  qcheck ~count:300 "criterion closed form solves eqn (6) exactly"
    QCheck.(pair (float_range 20.0 2000.0) (float_range 0.01 1.0))
    (fun (capacity, sigma) ->
      let mu = 1.0 in
      let alpha = 3.0 in
      let m = Mbac.Criterion.admissible_real ~capacity ~mu ~sigma ~alpha in
      (* plug back: Q((c - m mu)/(sigma sqrt m)) should equal Q(alpha) *)
      let z = (capacity -. (m *. mu)) /. (sigma *. sqrt m) in
      abs_float (z -. alpha) <= 1e-9)

let test_criterion_monotonicity =
  qcheck ~count:300 "admissible decreasing in sigma and alpha"
    QCheck.(pair (float_range 0.05 0.5) (float_range 0.1 4.0))
    (fun (sigma, alpha) ->
      let m1 =
        Mbac.Criterion.admissible_real ~capacity:100.0 ~mu:1.0 ~sigma ~alpha
      in
      let m2 =
        Mbac.Criterion.admissible_real ~capacity:100.0 ~mu:1.0
          ~sigma:(sigma +. 0.1) ~alpha
      in
      let m3 =
        Mbac.Criterion.admissible_real ~capacity:100.0 ~mu:1.0 ~sigma
          ~alpha:(alpha +. 0.5)
      in
      m2 <= m1 && m3 <= m1)

let test_criterion_edges () =
  check_close ~tol:1e-12 "sigma=0 -> c/mu" 50.0
    (Mbac.Criterion.admissible_real ~capacity:100.0 ~mu:2.0 ~sigma:0.0
       ~alpha:3.0);
  Alcotest.(check int) "no capacity" 0
    (Mbac.Criterion.admissible ~capacity:0.0 ~mu:1.0 ~sigma:0.3 ~alpha:3.0);
  Alcotest.check_raises "mu=0"
    (Invalid_argument "Criterion.admissible_real: requires mu > 0") (fun () ->
      ignore (Mbac.Criterion.admissible_real ~capacity:1.0 ~mu:0.0 ~sigma:0.1
                ~alpha:1.0))

let test_m_star () =
  let p = mk () in
  let m = Mbac.Criterion.m_star p in
  (* n=100, sigma/mu=.3, alpha=3.09: expansion gives ~ 100 - 9.27 = 90.7 *)
  Alcotest.(check int) "m_star" 91 m;
  check_close ~tol:0.01 "expansion close to exact" (Mbac.Criterion.m_star_real p)
    (Mbac.Criterion.m_star_approx p);
  (* m* < n always (safety margin) *)
  Alcotest.(check bool) "margin" true (float_of_int m < p.Mbac.Params.n)

let test_m_star_scaling =
  qcheck ~count:100 "eqn (5) expansion improves with n"
    QCheck.(float_range 100.0 10_000.0)
    (fun n ->
      let p = mk ~n () in
      let exact = Mbac.Criterion.m_star_real p in
      let approx = Mbac.Criterion.m_star_approx p in
      abs_float (exact -. approx) <= 3.0)

let test_peak_rate () =
  Alcotest.(check int) "peak alloc" 52
    (Mbac.Criterion.peak_rate_count ~capacity:100.0 ~peak:1.9)

let suite =
  [ ( "core_basics",
      [ test "params derived quantities" test_params_derived;
        test "params validation" test_params_validation;
        test "with_p_q" test_with_p_q;
        test "observation cross stats" test_observation_cross_stats;
        test "observation edge cases" test_observation_edges;
        test_criterion_satisfies_target;
        test_criterion_closed_form_roundtrip;
        test_criterion_monotonicity;
        test "criterion edge cases" test_criterion_edges;
        test "m_star" test_m_star;
        test_m_star_scaling;
        test "peak rate count" test_peak_rate ] ) ]
