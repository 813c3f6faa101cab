(* The paper's analysis formulas: Impulsive, Finite_holding, Hitting,
   Memory_formula, Inversion, Regimes, Window, Utilization. *)
open Test_util

let mk ?(n = 100.0) ?(t_h = 1000.0) ?(t_c = 1.0) ?(p_q = 1e-3) () =
  Mbac.Params.make ~n ~mu:1.0 ~sigma:0.3 ~t_h ~t_c ~p_q

let test_prop33_universal () =
  (* Q(alpha_q/sqrt 2) depends only on p_q: the paper's headline number *)
  let p = mk ~p_q:1e-5 () in
  check_close ~tol:0.02 "p_q=1e-5 -> ~1.3e-3" 1.3e-3
    (Mbac.Impulsive.overflow_probability p);
  (* independence from traffic parameters *)
  let p2 =
    Mbac.Params.make ~n:5000.0 ~mu:7.0 ~sigma:2.0 ~t_h:50.0 ~t_c:9.0 ~p_q:1e-5
  in
  check_close ~tol:1e-12 "universal"
    (Mbac.Impulsive.overflow_probability p)
    (Mbac.Impulsive.overflow_probability p2)

let test_eqn15_adjustment () =
  let p = mk () in
  let p_ce = Mbac.Impulsive.adjusted_p_ce p in
  (* running at Q(sqrt2 alpha) as target makes Q(alpha_ce/sqrt2) = p_q *)
  let alpha_ce = Mbac_stats.Gaussian.q_inv p_ce in
  check_close ~tol:1e-9 "inverse relation" p.Mbac.Params.p_q
    (Mbac_stats.Gaussian.q (alpha_ce /. sqrt 2.0));
  (* the closed approximation ~ sqrt(pi) alpha_q p_q^2 *)
  let approx = Mbac.Impulsive.adjusted_p_ce_approx p in
  Alcotest.(check bool) "approx within 25%" true
    (p_ce /. approx > 0.8 && p_ce /. approx < 1.25);
  (* p_q^2 scaling: halving log p_q roughly squares p_ce *)
  let p8 = Mbac.Params.with_p_q p 1e-6 in
  let ratio =
    Mbac.Impulsive.adjusted_p_ce p8 /. Mbac.Impulsive.adjusted_p_ce_approx p8
  in
  Alcotest.(check bool) "approx tightens as p_q shrinks" true
    (ratio > 0.9 && ratio < 1.2)

let test_impulsive_moments () =
  let p = mk () in
  check_close ~tol:1e-9 "mean" (100.0 -. (0.3 *. Mbac.Params.alpha_q p *. 10.0))
    (Mbac.Impulsive.admitted_mean_approx p);
  check_close ~tol:1e-12 "std" 3.0 (Mbac.Impulsive.admitted_std_approx p)

let test_sensitivities () =
  let p = mk () in
  let s_mu = Mbac.Impulsive.sensitivity_mu p in
  let s_sigma = Mbac.Impulsive.sensitivity_sigma p in
  Alcotest.(check bool) "both negative" true (s_mu < 0.0 && s_sigma < 0.0);
  (* |s_mu| grows like sqrt m* (~ sqrt n), |s_sigma| does not *)
  let p4 = mk ~n:400.0 () in
  let expected_ratio =
    sqrt (Mbac.Criterion.m_star_real p4 /. Mbac.Criterion.m_star_real p)
  in
  check_close ~tol:1e-9 "s_mu scales as sqrt m*" expected_ratio
    (Mbac.Impulsive.sensitivity_mu p4 /. s_mu);
  check_close ~tol:1e-9 "s_sigma size-free" 1.0
    (Mbac.Impulsive.sensitivity_sigma p4 /. s_sigma)

let test_sensitivity_prediction () =
  let p = mk ~n:400.0 ~p_q:1e-2 () in
  (* small deviations: first-order prediction tracks the exact map *)
  List.iter
    (fun (d_mu, d_sigma) ->
      let predicted = Mbac.Impulsive.predicted_p_f_shift p ~d_mu ~d_sigma in
      let actual = Mbac.Impulsive.actual_p_f_given_error p ~d_mu ~d_sigma in
      let err = abs_float (predicted -. actual) in
      if err > 0.35 *. p.Mbac.Params.p_q then
        Alcotest.failf "sensitivity (%g,%g): predicted %.4g actual %.4g"
          d_mu d_sigma predicted actual)
    [ (1e-4, 0.0); (-1e-4, 0.0); (0.0, 1e-3); (0.0, -1e-3); (5e-5, 5e-4) ];
  (* zero deviation recovers the target exactly *)
  check_close ~tol:1e-9 "no error -> p_q" p.Mbac.Params.p_q
    (Mbac.Impulsive.actual_p_f_given_error p ~d_mu:0.0 ~d_sigma:0.0)

let test_sensitivity_asymmetry () =
  (* under-estimation hurts more than over-estimation helps (§5.1) *)
  let p = mk ~p_q:1e-3 () in
  let d = 0.02 in
  let worse = Mbac.Impulsive.actual_p_f_given_error p ~d_mu:(-.d) ~d_sigma:0.0 in
  let better = Mbac.Impulsive.actual_p_f_given_error p ~d_mu:d ~d_sigma:0.0 in
  Alcotest.(check bool) "asymmetry" true
    (worse -. p.Mbac.Params.p_q > p.Mbac.Params.p_q -. better)

let test_finite_holding_shape () =
  let p = mk ~t_h:100.0 ~p_q:1e-2 () in
  let f = Mbac.Finite_holding.overflow_probability_at_ou p in
  Alcotest.(check (float 0.0)) "t=0" 0.0 (f 0.0);
  let peak_t = Mbac.Finite_holding.peak_time_ou p in
  let peak = Mbac.Finite_holding.peak_overflow_ou p in
  Alcotest.(check bool) "rises to a peak" true (f (peak_t /. 4.0) < peak);
  Alcotest.(check bool) "decays after the peak" true (f (6.0 *. peak_t) < peak);
  (* the peak never exceeds the infinite-holding-time limit Q(alpha/sqrt2) *)
  Alcotest.(check bool) "bounded by impulsive limit" true
    (peak <= Mbac.Impulsive.overflow_probability p +. 1e-12)

let test_finite_holding_departure_drift () =
  (* with longer holding times the hump persists longer and is higher *)
  let p_short = mk ~t_h:50.0 ~p_q:1e-2 () in
  let p_long = mk ~t_h:5000.0 ~p_q:1e-2 () in
  let t = 5.0 in
  Alcotest.(check bool) "departures repair faster for short T_h" true
    (Mbac.Finite_holding.overflow_probability_at_ou p_short t
     < Mbac.Finite_holding.overflow_probability_at_ou p_long t)

let test_hitting_brownian_sanity () =
  (* For an OU-style incremental variance the hitting probability must
     decrease in alpha and increase as the drift beta decreases. *)
  let rho t = exp (-.t) in
  let hp alpha beta =
    Mbac_oracles.Hitting.probability_stationary ~alpha ~beta ~rho
      ~rho_slope0:1.0
  in
  Alcotest.(check bool) "decreasing in alpha" true (hp 4.0 1.0 < hp 2.0 1.0);
  Alcotest.(check bool) "increasing as drift shrinks" true
    (hp 3.0 0.1 > hp 3.0 1.0);
  Alcotest.(check bool) "positive" true (hp 3.0 1.0 > 0.0)

let test_hitting_vs_monte_carlo () =
  (* Validate the Braker approximation (eqn 30) directly: simulate the
     discretised OU process Y and estimate
     P(sup_t (Y_{-t} - Y_0 - beta t) > alpha) by Monte Carlo. *)
  let rng = Mbac_stats.Rng.create ~seed:4242 in
  let beta = 0.2 and alpha = 2.0 in
  let dt = 0.02 in
  let a = exp (-.dt) (* t_c = 1 *) in
  let s_noise = sqrt (1.0 -. (a *. a)) in
  let horizon_steps = int_of_float (3.0 *. (alpha /. beta) /. dt) in
  let reps = 20_000 in
  let hits = ref 0 in
  for _ = 1 to reps do
    (* stationary start *)
    let y0 = Mbac_stats.Sample.gaussian rng ~mu:0.0 ~sigma:1.0 in
    let y = ref y0 in
    (try
       for k = 1 to horizon_steps do
         y := (a *. !y) +. Mbac_stats.Sample.gaussian rng ~mu:0.0 ~sigma:s_noise;
         let t = float_of_int k *. dt in
         if !y -. y0 -. (beta *. t) > alpha then begin
           incr hits;
           raise Exit
         end
       done
     with Exit -> ())
  done;
  let mc = float_of_int !hits /. float_of_int reps in
  let approx =
    Mbac_oracles.Hitting.probability_stationary ~alpha ~beta
      ~rho:(fun t -> exp (-.t))
      ~rho_slope0:1.0
  in
  (* The approximation is asymptotic in alpha; at alpha = 2 expect
     agreement within a factor ~2, with the approximation conservative. *)
  Alcotest.(check bool)
    (Printf.sprintf "Braker %.4g vs Monte Carlo %.4g" approx mc)
    true
    (approx > 0.7 *. mc && approx < 4.0 *. mc)

let test_memoryless_formula_consistency () =
  (* eqn (32) as Hitting.probability_stationary must equal
     Memory_formula.overflow at t_m = 0 *)
  let p = mk () in
  let alpha = Mbac.Params.alpha_q p in
  let direct = Mbac.Memory_formula.overflow_memoryless ~p ~alpha_ce:alpha in
  let via_hitting =
    Mbac_oracles.Hitting.probability_stationary ~alpha
      ~beta:(Mbac.Params.beta p)
      ~rho:(fun t -> exp (-.t /. p.Mbac.Params.t_c))
      ~rho_slope0:(1.0 /. p.Mbac.Params.t_c)
  in
  check_close ~tol:1e-6 "two routes agree" via_hitting direct

let test_closed_form_vs_integral () =
  (* under separation of time-scales (gamma >> 1), eqn (38) ~ eqn (37) *)
  let p = mk ~t_h:10_000.0 () in
  (* gamma = 300 *)
  List.iter
    (fun t_m ->
      let alpha = Mbac.Params.alpha_q p in
      let general = Mbac.Memory_formula.overflow ~p ~t_m ~alpha_ce:alpha in
      let closed =
        Mbac.Memory_formula.overflow_closed_form ~p ~t_m ~alpha_ce:alpha
      in
      if abs_float (general -. closed) > 0.03 *. closed then
        Alcotest.failf "t_m=%g: (37)=%g vs (38)=%g" t_m general closed)
    [ 0.0; 1.0; 10.0; 100.0 ]

let test_eqn33_34_algebra () =
  (* the paper's rewriting of (33) into flow parameters via Q ~ phi/x *)
  let p = mk ~t_h:10_000.0 () in
  let alpha = Mbac.Params.alpha_q p in
  let a = Mbac.Memory_formula.overflow_memoryless_closed_form ~p ~alpha_ce:alpha in
  let b = Mbac.Memory_formula.overflow_memoryless_in_flow_params ~p ~alpha_ce:alpha in
  Alcotest.(check bool) "within the Q~phi/x error" true
    (a /. b > 0.8 && a /. b < 1.3)

let test_memory_monotone =
  qcheck ~count:100 "overflow decreasing in memory"
    QCheck.(pair (float_range 0.0 200.0) (float_range 1.0 200.0))
    (fun (t_m, dt) ->
      let p = mk () in
      let alpha = Mbac.Params.alpha_q p in
      let a = Mbac.Memory_formula.overflow_closed_form ~p ~t_m ~alpha_ce:alpha in
      let b =
        Mbac.Memory_formula.overflow_closed_form ~p ~t_m:(t_m +. dt)
          ~alpha_ce:alpha
      in
      b <= a +. 1e-12)

let test_memory_limits () =
  let p = mk () in
  let alpha = Mbac.Params.alpha_q p in
  (* T_m -> infinity: only the residual fluctuation term remains,
     approaching Q(alpha) = p_q *)
  let pf_inf =
    Mbac.Memory_formula.overflow_closed_form ~p ~t_m:1e7 ~alpha_ce:alpha
  in
  check_close ~tol:0.01 "infinite memory -> p_q" p.Mbac.Params.p_q pf_inf;
  (* estimator error variance: 1 at t_m=0, -> 0 with memory *)
  check_close ~tol:1e-12 "error variance memoryless" 1.0
    (Mbac.Memory_formula.estimator_error_variance ~t_c:1.0 ~t_m:0.0);
  check_close ~tol:1e-3 "error variance vanishes" 0.001
    (Mbac.Memory_formula.estimator_error_variance ~t_c:1.0 ~t_m:999.0)

let test_sigma_m_sq () =
  (* t -> 0: sigma_m^2 -> Tm/(Tc+Tm) (filtered error vs current value);
     t -> inf: -> (2Tc+Tm)/(Tc+Tm). *)
  let t_c = 1.0 and t_m = 3.0 and gamma = 10.0 in
  check_close ~tol:1e-9 "limit at 0" 0.75
    (Mbac.Memory_formula.sigma_m_sq ~t_c ~t_m ~gamma 0.0);
  check_close ~tol:1e-6 "limit at infinity" 1.25
    (Mbac.Memory_formula.sigma_m_sq ~t_c ~t_m ~gamma 1e6);
  (* t_m = 0 reduces to the memoryless incremental variance 2(1 - e^-gt) *)
  check_close ~tol:1e-9 "t_m=0 memoryless" (2.0 *. (1.0 -. exp (-10.0)))
    (Mbac.Memory_formula.sigma_m_sq ~t_c ~t_m:0.0 ~gamma 1.0)

let test_inversion_roundtrip =
  qcheck ~count:60 "inversion achieves the target"
    QCheck.(float_range 0.5 300.0)
    (fun t_m ->
      let p = mk () in
      let achieved = Mbac.Inversion.achieved_overflow ~t_m p in
      abs_float (achieved -. p.Mbac.Params.p_q) <= 1e-6 *. p.Mbac.Params.p_q)

let test_inversion_general_formula () =
  let p = mk () in
  let a =
    Mbac.Inversion.achieved_overflow ~formula:Mbac.Inversion.General ~t_m:10.0 p
  in
  check_close ~tol:1e-5 "general formula roundtrip" p.Mbac.Params.p_q a

let test_inversion_monotone () =
  let p = mk () in
  let alphas =
    List.map (fun t_m -> Mbac.Inversion.adjusted_alpha_ce ~t_m p)
      [ 0.5; 5.0; 50.0; 500.0 ]
  in
  let rec decreasing = function
    | a :: (b :: _ as rest) -> a >= b && decreasing rest
    | _ -> true
  in
  Alcotest.(check bool) "more memory needs less adjustment" true
    (decreasing alphas);
  (* large memory: alpha_ce -> alpha_q *)
  let a_inf = Mbac.Inversion.adjusted_alpha_ce ~t_m:1e6 p in
  check_close ~tol:0.01 "relaxes to alpha_q" (Mbac.Params.alpha_q p) a_inf

let test_regimes () =
  (* masking: general formula ~ masking closed form for T_c << T~_h *)
  let p_mask = mk ~t_c:0.01 () in
  let t_m = Mbac.Window.recommended_t_m p_mask in
  let general =
    Mbac.Memory_formula.overflow ~p:p_mask ~t_m
      ~alpha_ce:(Mbac.Params.alpha_q p_mask)
  in
  let masking = Mbac.Regimes.masking_overflow p_mask in
  Alcotest.(check bool) "masking form within 20%" true
    (general /. masking > 0.8 && general /. masking < 1.25);
  Alcotest.(check bool) "classified masking" true
    (Mbac.Regimes.regime p_mask ~t_m = `Masking);
  (* repair: both forms collapse below p_q for T_c >> T~_h *)
  let p_rep = mk ~t_c:1000.0 () in
  let general_rep =
    Mbac.Memory_formula.overflow ~p:p_rep
      ~t_m:(Mbac.Window.recommended_t_m p_rep)
      ~alpha_ce:(Mbac.Params.alpha_q p_rep)
  in
  Alcotest.(check bool) "repair regime far below target" true
    (general_rep < 1e-10 && Mbac.Regimes.repair_overflow p_rep < 1e-10);
  Alcotest.(check bool) "derived repair form tracks general" true
    (let r = Mbac.Regimes.repair_overflow p_rep /. general_rep in
     r > 0.1 && r < 100.0);
  Alcotest.(check bool) "classified repair" true
    (Mbac.Regimes.regime p_rep ~t_m = `Repair)

let test_window_rule () =
  let p = mk () in
  check_close ~tol:1e-12 "T_m = T~_h" 100.0 (Mbac.Window.recommended_t_m p);
  let t_cs = [| 0.01; 0.1; 1.0; 10.0; 100.0; 1000.0 |] in
  (* the recommended window is robust; a tiny window is not *)
  Alcotest.(check bool) "recommended robust" true
    (Mbac.Window.is_robust p ~t_m:(Mbac.Window.recommended_t_m p) ~t_cs);
  Alcotest.(check bool) "tiny window not robust" false
    (Mbac.Window.is_robust p ~t_m:0.5 ~t_cs);
  (* profile is per-t_c consistent with the formula *)
  let profile = Mbac.Window.robustness_profile p ~t_m:100.0 ~t_cs in
  Array.iter
    (fun (t_c, pf) ->
      let p' = mk ~t_c () in
      check_close ~tol:1e-9 "profile consistency"
        (Mbac.Memory_formula.overflow ~p:p' ~t_m:100.0
           ~alpha_ce:(Mbac.Params.alpha_q p'))
        pf)
    profile

let test_overflow_cached () =
  let p = mk () in
  let alpha = Mbac.Params.alpha_q p in
  (* the point cache is bit-identical to the integral, first hit and
     repeat hit alike *)
  List.iter
    (fun t_m ->
      let direct = Mbac.Memory_formula.overflow ~p ~t_m ~alpha_ce:alpha in
      let cached =
        Mbac.Memory_formula.overflow_cached ~p ~t_m ~alpha_ce:alpha
      in
      let again =
        Mbac.Memory_formula.overflow_cached ~p ~t_m ~alpha_ce:alpha
      in
      Alcotest.(check (float 0.0)) "cached = exact" direct cached;
      Alcotest.(check (float 0.0)) "cache hit stable" direct again)
    [ 0.0; 1.0; 10.0; 100.0 ]

let test_utilization () =
  let p = mk () in
  let alpha_q = Mbac.Params.alpha_q p in
  check_close ~tol:1e-12 "perfect"
    (Mbac.Criterion.m_star_real p *. p.Mbac.Params.mu)
    (Mbac.Utilization.perfect p);
  (* eqn (40): gap formula *)
  check_close ~tol:1e-12 "gap" (0.3 *. 10.0 *. 1.0)
    (Mbac.Utilization.difference p ~alpha_ce:(alpha_q +. 1.0) ~alpha_ce':alpha_q);
  (* impulsive-load eqn (15) loss: (sqrt 2 - 1) sigma alpha sqrt n *)
  check_close ~tol:1e-9 "sqrt2 loss"
    ((sqrt 2.0 -. 1.0) *. 0.3 *. alpha_q *. 10.0)
    (Mbac.Impulsive.utilization_loss p);
  Alcotest.(check bool) "robustness cost positive and modest" true
    (let c = Mbac.Utilization.robustness_cost p ~t_m:100.0 in
     c > 0.0 && c < 3.0)

let suite =
  [ ( "analysis",
      [ test "Prop 3.3 universal penalty" test_prop33_universal;
        test "eqn (15) adjustment" test_eqn15_adjustment;
        test "impulsive moments" test_impulsive_moments;
        test "sensitivities s_mu, s_sigma" test_sensitivities;
        test "sensitivity first-order prediction" test_sensitivity_prediction;
        test "under/over-estimation asymmetry" test_sensitivity_asymmetry;
        test "finite holding hump" test_finite_holding_shape;
        test "departure drift" test_finite_holding_departure_drift;
        test "hitting probability sanity" test_hitting_brownian_sanity;
        slow_test "Braker approximation vs Monte Carlo" test_hitting_vs_monte_carlo;
        test "eqn (32) two derivations" test_memoryless_formula_consistency;
        test "eqn (38) vs (37) at gamma >> 1" test_closed_form_vs_integral;
        test "eqn (33)/(34) algebra" test_eqn33_34_algebra;
        test_memory_monotone;
        test "memory limits" test_memory_limits;
        test "sigma_m^2 limits" test_sigma_m_sq;
        test_inversion_roundtrip;
        test "inversion of the general formula" test_inversion_general_formula;
        test "inversion monotone in memory" test_inversion_monotone;
        test "regimes" test_regimes;
        test "window rule" test_window_rule;
        test "eqn (37) point cache" test_overflow_cached;
        test "utilization accounting" test_utilization ] ) ]
