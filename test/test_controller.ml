open Test_util

let capacity = 100.0

let obs ?(now = 0.0) rates =
  let n = Array.length rates in
  let sum = Array.fold_left ( +. ) 0.0 rates in
  let sq = Array.fold_left (fun a r -> a +. (r *. r)) 0.0 rates in
  Mbac.Observation.make ~now ~n ~sum_rate:sum ~sum_sq:sq

let steady_rates n = Array.make n 1.0

let mk_params () =
  Mbac.Params.make ~n:100.0 ~mu:1.0 ~sigma:0.3 ~t_h:1000.0 ~t_c:1.0 ~p_q:1e-3

let test_perfect () =
  let p = mk_params () in
  let c = Mbac.Controller.perfect p in
  let m = Mbac.Criterion.m_star p in
  Alcotest.(check int) "always m*" m
    (Mbac.Controller.admissible c (obs (steady_rates 5)));
  Alcotest.(check int) "state independent" m
    (Mbac.Controller.admissible c (obs (steady_rates 200)))

let test_ce_uses_estimates () =
  let estimator = Mbac.Estimator.memoryless () in
  let c = Mbac.Controller.certainty_equivalent ~capacity ~p_ce:1e-3 estimator in
  (* no estimate yet: cautious bootstrap n+1 *)
  Alcotest.(check int) "bootstrap" 1
    (Mbac.Controller.admissible c (obs [||]));
  (* feed a cross-section: rates with mean 1, sample std ~0.3 *)
  let rates = [| 0.7; 1.0; 1.3; 1.0; 0.7; 1.3; 1.0; 1.0 |] in
  Mbac.Controller.observe c (obs rates);
  let m = Mbac.Controller.admissible c (obs rates) in
  let mu = Mbac_stats.Descriptive.mean rates in
  let sigma = Mbac_stats.Descriptive.std rates in
  let expected =
    Mbac.Criterion.admissible ~capacity ~mu ~sigma
      ~alpha:(Mbac_stats.Gaussian.q_inv 1e-3)
  in
  Alcotest.(check int) "matches criterion on estimates" expected m

let test_ce_never_negative =
  qcheck ~count:200 "admissible count is never negative"
    QCheck.(array_of_size Gen.(int_range 0 20) (float_range 0.0 50.0))
    (fun rates ->
      let c =
        Mbac.Controller.certainty_equivalent ~capacity ~p_ce:1e-3
          (Mbac.Estimator.memoryless ())
      in
      let o = obs rates in
      Mbac.Controller.observe c o;
      Mbac.Controller.admissible c o >= 0)

let test_ce_invalid_p () =
  Alcotest.check_raises "p_ce > 0.5"
    (Invalid_argument "Criterion: requires 0 < p_ce <= 0.5") (fun () ->
      ignore (Mbac.Controller.memoryless ~capacity ~p_ce:0.9));
  (* the same checks guard every scheme's rule, a NaN peak included *)
  Alcotest.check_raises "chernoff p_ce = 0"
    (Invalid_argument "Criterion: requires 0 < p_ce <= 0.5") (fun () ->
      ignore
        (Mbac.Controller.chernoff ~capacity ~p_ce:0.0
           (Mbac.Estimator.memoryless ())));
  Alcotest.check_raises "hoeffding NaN peak"
    (Invalid_argument "Criterion: requires peak > 0") (fun () ->
      ignore
        (Mbac.Controller.hoeffding ~capacity ~p_ce:1e-3 ~peak:nan
           (Mbac.Estimator.memoryless ())))

let test_robust_more_conservative () =
  let p = mk_params () in
  let robust = Mbac.Controller.robust p in
  let plain =
    Mbac.Controller.with_memory ~capacity ~p_ce:1e-3
      ~t_m:(Mbac.Window.recommended_t_m p)
  in
  (* identical observations; the robust one must admit no more flows *)
  let rates =
    Array.init 90 (fun i -> 1.0 +. (0.3 *. sin (float_of_int i)))
  in
  let o = obs rates in
  Mbac.Controller.observe robust o;
  Mbac.Controller.observe plain o;
  Alcotest.(check bool) "robust <= plain" true
    (Mbac.Controller.admissible robust o <= Mbac.Controller.admissible plain o)

let test_peak_rate () =
  let c = Mbac.Controller.peak_rate ~capacity ~peak:1.9 in
  Alcotest.(check int) "floor(c/peak)" 52
    (Mbac.Controller.admissible c (obs (steady_rates 10)))

let test_measured_sum_blocks_on_peak_load () =
  let c =
    Mbac.Controller.measured_sum ~capacity ~utilization_target:0.9 ~window:10.0
      ~peak:2.0
  in
  (* observe a high-load period: max load 88, headroom = 90 - 88 = 2 -> 1 more *)
  Mbac.Controller.observe c (obs ~now:0.0 (Array.make 88 1.0));
  let m = Mbac.Controller.admissible c (obs ~now:1.0 (Array.make 88 1.0)) in
  Alcotest.(check int) "one admission left" 89 m;
  (* load at the target: no admissions *)
  Mbac.Controller.observe c (obs ~now:2.0 (Array.make 90 1.0));
  Alcotest.(check int) "full" 90
    (Mbac.Controller.admissible c (obs ~now:2.5 (Array.make 90 1.0)))

let test_measured_sum_window_forgets () =
  let c =
    Mbac.Controller.measured_sum ~capacity ~utilization_target:0.9 ~window:8.0
      ~peak:2.0
  in
  Mbac.Controller.observe c (obs ~now:0.0 (Array.make 90 1.0));
  (* long quiet period: the high maximum ages out of the window *)
  Mbac.Controller.observe c (obs ~now:20.0 (Array.make 10 1.0));
  let m = Mbac.Controller.admissible c (obs ~now:20.0 (Array.make 10 1.0)) in
  (* headroom = 90 - 10 = 80 -> 40 extra flows *)
  Alcotest.(check int) "peak aged out" 50 m

let test_hoeffding_conservative () =
  let est = Mbac.Estimator.memoryless () in
  let c = Mbac.Controller.hoeffding ~capacity ~p_ce:1e-3 ~peak:1.9 est in
  let rates = Array.make 50 1.0 in
  Mbac.Controller.observe c (obs rates);
  let m_hoeffding = Mbac.Controller.admissible c (obs rates) in
  (* compare with the Gaussian criterion using the true sigma: Hoeffding
     must be (much) more conservative than the CE criterion, but better
     than peak-rate allocation *)
  let m_ce =
    Mbac.Criterion.admissible ~capacity ~mu:1.0 ~sigma:0.3
      ~alpha:(Mbac_stats.Gaussian.q_inv 1e-3)
  in
  Alcotest.(check bool) "hoeffding <= gaussian ce" true (m_hoeffding <= m_ce);
  Alcotest.(check bool) "hoeffding >= peak-rate" true
    (m_hoeffding >= Mbac.Criterion.peak_rate_count ~capacity ~peak:1.9)

let test_gkk_blocks_until_departure () =
  let c =
    Mbac.Controller.gkk ~capacity ~p_ce:1e-3 ~prior_mu:1.0 ~prior_var:0.09
      ~prior_weight:0.5
  in
  let rates = Array.make 99 1.0 in
  let o = obs rates in
  Mbac.Controller.observe c o;
  (* system near the criterion boundary: m <= n triggers the block *)
  let m1 = Mbac.Controller.admissible c o in
  if m1 <= 99 then begin
    (* blocked now; even a rosier observation cannot admit *)
    let small = obs (Array.make 10 1.0) in
    Mbac.Controller.observe c small;
    Alcotest.(check int) "blocked returns n" 10
      (Mbac.Controller.admissible c small);
    (* a departure unblocks *)
    Mbac.Controller.on_depart c small;
    Alcotest.(check bool) "unblocked" true
      (Mbac.Controller.admissible c small > 10)
  end

let test_gkk_prior_blending () =
  (* with prior weight 1.0 the estimates are ignored entirely *)
  let c =
    Mbac.Controller.gkk ~capacity ~p_ce:1e-3 ~prior_mu:1.0 ~prior_var:0.09
      ~prior_weight:1.0
  in
  let crazy = obs [| 10.0; 12.0; 14.0 |] in
  Mbac.Controller.observe c crazy;
  let expected =
    Mbac.Criterion.admissible ~capacity ~mu:1.0 ~sigma:0.3
      ~alpha:(Mbac_stats.Gaussian.q_inv 1e-3)
  in
  Alcotest.(check int) "pure prior" expected (Mbac.Controller.admissible c crazy)

let test_reset_restores_bootstrap () =
  let c = Mbac.Controller.memoryless ~capacity ~p_ce:1e-3 in
  let o = obs [| 1.0; 1.2; 0.8 |] in
  Mbac.Controller.observe c o;
  Alcotest.(check bool) "estimates in effect" true
    (Mbac.Controller.admissible c o > 4);
  Mbac.Controller.reset c;
  Alcotest.(check int) "bootstrap after reset" 4
    (Mbac.Controller.admissible c (obs [| 1.0; 1.0; 1.0 |]))

let suite =
  [ ( "controller",
      [ test "perfect knowledge" test_perfect;
        test "certainty equivalent uses estimates" test_ce_uses_estimates;
        test_ce_never_negative;
        test "p_ce validation" test_ce_invalid_p;
        test "robust is more conservative" test_robust_more_conservative;
        test "peak rate" test_peak_rate;
        test "measured sum blocks at peak" test_measured_sum_blocks_on_peak_load;
        test "measured sum window forgets" test_measured_sum_window_forgets;
        test "hoeffding conservative" test_hoeffding_conservative;
        test "gkk one-out-one-in" test_gkk_blocks_until_departure;
        test "gkk prior blending" test_gkk_prior_blending;
        test "reset" test_reset_restores_bootstrap ] ) ]
