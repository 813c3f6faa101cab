open Mbac_stats
open Mbac_oracles
open Test_util

let test_ks_statistic_exact () =
  (* single point at the median of U(0,1): D = 0.5 *)
  let d = Ks_test.statistic ~cdf:(fun x -> x) [| 0.5 |] in
  check_close ~tol:1e-12 "single point" 0.5 d;
  (* perfectly placed grid has small D *)
  let xs = Array.init 100 (fun i -> (float_of_int i +. 0.5) /. 100.0) in
  let d = Ks_test.statistic ~cdf:(fun x -> x) xs in
  check_close ~tol:1e-12 "ideal grid" 0.005 d

let test_ks_accepts_correct_distribution () =
  let rng = Rng.create ~seed:1200 in
  let xs = Array.init 2000 (fun _ -> Sample.gaussian rng ~mu:0.0 ~sigma:1.0) in
  Alcotest.(check bool) "gaussian sample vs gaussian cdf" true
    (Ks_test.test ~cdf:Gaussian.cdf ~alpha:0.01 xs)

let test_ks_rejects_wrong_distribution () =
  let rng = Rng.create ~seed:1201 in
  (* exponential sample against a gaussian reference: must reject *)
  let xs = Array.init 2000 (fun _ -> Sample.exponential rng ~mean:1.0) in
  Alcotest.(check bool) "exponential vs gaussian rejected" false
    (Ks_test.test ~cdf:Gaussian.cdf ~alpha:0.01 xs);
  (* shifted gaussian also rejected *)
  let ys = Array.init 2000 (fun _ -> Sample.gaussian rng ~mu:0.3 ~sigma:1.0) in
  Alcotest.(check bool) "shifted gaussian rejected" false
    (Ks_test.test ~cdf:Gaussian.cdf ~alpha:0.01 ys)

let test_ks_p_value_calibration () =
  (* under the null, p-values should be roughly uniform: check the
     rejection rate at alpha = 0.1 over many small samples *)
  let rng = Rng.create ~seed:1202 in
  let rejections = ref 0 in
  let trials = 400 in
  for _ = 1 to trials do
    let xs = Array.init 200 (fun _ -> Rng.float rng) in
    if not (Ks_test.test ~cdf:(fun x -> Float.max 0.0 (Float.min 1.0 x)) ~alpha:0.1 xs)
    then incr rejections
  done;
  let rate = float_of_int !rejections /. float_of_int trials in
  Alcotest.(check bool)
    (Printf.sprintf "rejection rate %.3f ~ 0.1" rate)
    true
    (rate > 0.03 && rate < 0.2)

let test_ks_p_value_monotone =
  qcheck ~count:100 "p-value decreasing in the statistic"
    QCheck.(pair (float_range 0.01 0.3) (float_range 0.01 0.2))
    (fun (d, dd) ->
      Ks_test.p_value ~n:100 (d +. dd) <= Ks_test.p_value ~n:100 d +. 1e-12)

(* The functional-CLT assumption B.6: the aggregate of many RCBR flows,
   standardised, should pass a Gaussian KS test. *)
let test_aggregate_gaussianity_b6 () =
  let rng = Rng.create ~seed:1203 in
  let n_flows = 100 in
  let p = { Mbac_traffic.Rcbr.mu = 1.0; sigma = 0.3; t_c = 1.0 } in
  let path =
    Mbac_traffic.Aggregate.sample_path rng
      (fun rng ~start -> Mbac_traffic.Rcbr.create rng p ~start)
      ~n_sources:n_flows ~horizon:4000.0 ~dt:4.0
  in
  let mu = float_of_int n_flows *. 1.0 in
  let sigma = 0.3 *. sqrt (float_of_int n_flows) in
  let standardized = Array.map (fun s -> (s -. mu) /. sigma) path in
  Alcotest.(check bool) "B.6: aggregate is Gaussian" true
    (Ks_test.test ~cdf:Gaussian.cdf ~alpha:0.005 standardized)

let test_hurst_on_fgn () =
  let rng = Rng.create ~seed:1204 in
  List.iter
    (fun h ->
      let xs = Mbac_numerics.Fgn.generate rng ~hurst:h ~n:32768 in
      let est = Hurst.aggregated_variance xs in
      if abs_float (est -. h) > 0.1 then
        Alcotest.failf "aggregated variance H=%.2f estimated %.3f" h est)
    [ 0.5; 0.7; 0.85 ]

let test_hurst_rs_on_fgn () =
  let rng = Rng.create ~seed:1205 in
  let xs = Mbac_numerics.Fgn.generate rng ~hurst:0.8 ~n:32768 in
  let est = Hurst.rescaled_range xs in
  (* R/S is biased on short series; accept a generous band *)
  Alcotest.(check bool)
    (Printf.sprintf "R/S estimate %.3f for H=0.8" est)
    true
    (est > 0.65 && est < 0.95)

let test_hurst_iid_is_half () =
  let rng = Rng.create ~seed:1206 in
  let xs = Array.init 32768 (fun _ -> Sample.gaussian rng ~mu:0.0 ~sigma:1.0) in
  let est = Hurst.aggregated_variance xs in
  check_close_abs ~tol:0.07 "iid H = 0.5" 0.5 est

let test_hurst_mpeg_synth () =
  (* the synthetic Starwars substitute should measure as LRD, H ~ 0.8+ *)
  let rng = Rng.create ~seed:1207 in
  let t =
    Mbac_traffic.Mpeg_synth.generate rng
      (Mbac_traffic.Mpeg_synth.default_params ~mean_rate:1.0)
      ~frames:32768
  in
  let est = Hurst.aggregated_variance t.Mbac_traffic.Trace.rates in
  Alcotest.(check bool)
    (Printf.sprintf "synthetic video H=%.3f is LRD" est)
    true (est > 0.7)

let test_hurst_too_short () =
  Alcotest.check_raises "short series"
    (Invalid_argument "Hurst.aggregated_variance: series too short") (fun () ->
      ignore (Hurst.aggregated_variance (Array.make 10 0.0)))

let suite =
  [ ( "ks_hurst",
      [ test "KS statistic values" test_ks_statistic_exact;
        test "KS accepts correct" test_ks_accepts_correct_distribution;
        test "KS rejects wrong" test_ks_rejects_wrong_distribution;
        slow_test "KS p-value calibration" test_ks_p_value_calibration;
        test_ks_p_value_monotone;
        slow_test "assumption B.6 Gaussianity" test_aggregate_gaussianity_b6;
        slow_test "Hurst on exact fGn" test_hurst_on_fgn;
        slow_test "R/S estimator" test_hurst_rs_on_fgn;
        slow_test "iid gives H=0.5" test_hurst_iid_is_half;
        slow_test "synthetic video is LRD" test_hurst_mpeg_synth;
        test "validation" test_hurst_too_short ] ) ]
