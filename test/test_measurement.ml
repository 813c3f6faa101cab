open Mbac_sim
open Test_util

let test_overflow_fraction () =
  let m = Measurement.create ~capacity:10.0 ~warmup:0.0 ~batch_length:1.0 () in
  (* 3 units over capacity, 7 under -> 0.3 *)
  Measurement.record m ~t0:0.0 ~t1:3.0 ~load:11.0;
  Measurement.record m ~t0:3.0 ~t1:10.0 ~load:9.0;
  check_close ~tol:1e-12 "fraction" 0.3 (Measurement.overflow_fraction m);
  check_close ~tol:1e-12 "time" 10.0 (Measurement.measured_time m)

let test_warmup_discard () =
  let m = Measurement.create ~capacity:10.0 ~warmup:5.0 ~batch_length:1.0 () in
  (* all the overflow happens before the warmup deadline *)
  Measurement.record m ~t0:0.0 ~t1:5.0 ~load:20.0;
  Measurement.record m ~t0:5.0 ~t1:10.0 ~load:1.0;
  Alcotest.(check (float 0.0)) "warmup discarded" 0.0
    (Measurement.overflow_fraction m);
  check_close ~tol:1e-12 "only post-warmup time" 5.0 (Measurement.measured_time m)

let test_warmup_straddle () =
  let m = Measurement.create ~capacity:10.0 ~warmup:5.0 ~batch_length:1.0 () in
  (* segment straddles the deadline: only [5,8) counts *)
  Measurement.record m ~t0:0.0 ~t1:8.0 ~load:20.0;
  Measurement.record m ~t0:8.0 ~t1:11.0 ~load:0.0;
  check_close ~tol:1e-12 "straddled fraction" 0.5 (Measurement.overflow_fraction m)

let test_boundary_load_not_overflow () =
  (* load exactly at capacity is NOT overflow (strict >) *)
  let m = Measurement.create ~capacity:10.0 ~warmup:0.0 ~batch_length:1.0 () in
  Measurement.record m ~t0:0.0 ~t1:5.0 ~load:10.0;
  Alcotest.(check (float 0.0)) "boundary" 0.0 (Measurement.overflow_fraction m)

let test_gaussian_fit () =
  let m = Measurement.create ~capacity:12.0 ~warmup:0.0 ~batch_length:1.0 () in
  (* alternate loads 9 and 11: mean 10, std 1 -> fit = Q(2) *)
  for i = 0 to 999 do
    let load = if i mod 2 = 0 then 9.0 else 11.0 in
    Measurement.record m ~t0:(float_of_int i) ~t1:(float_of_int (i + 1)) ~load
  done;
  check_close ~tol:1e-6 "load mean" 10.0 (Measurement.load_mean m);
  check_close ~tol:1e-6 "load std" 1.0 (Measurement.load_std m);
  check_close ~tol:1e-6 "gaussian fit" (Mbac_stats.Gaussian.q 2.0)
    (Measurement.gaussian_fit_overflow m)

let test_check_stop_converged () =
  let m = Measurement.create ~capacity:10.0 ~warmup:0.0 ~batch_length:1.0 () in
  (* constant 30% overflow in every batch: CI collapses to zero *)
  for i = 0 to 49 do
    let t = float_of_int i in
    Measurement.record m ~t0:t ~t1:(t +. 0.3) ~load:11.0;
    Measurement.record m ~t0:(t +. 0.3) ~t1:(t +. 1.0) ~load:9.0
  done;
  (match Measurement.check_stop m ~target:1e-3 with
  | Measurement.Converged { p_f; ci_rel } ->
      check_close ~tol:1e-9 "converged value" 0.3 p_f;
      Alcotest.(check bool) "tight ci" true (ci_rel < 0.01)
  | _ -> Alcotest.fail "expected Converged")

let test_check_stop_below_target () =
  let m = Measurement.create ~capacity:10.0 ~warmup:0.0 ~batch_length:1.0 () in
  (* zero overflow for a long time, target large: below-target fires *)
  Measurement.record m ~t0:0.0 ~t1:100.0 ~load:5.0;
  (match Measurement.check_stop m ~target:0.5 with
  | Measurement.Below_target { p_f_fit; upper_bound } ->
      Alcotest.(check bool) "fit is 0 for constant load" true (p_f_fit = 0.0);
      Alcotest.(check bool) "upper bound small" true (upper_bound <= 0.005)
  | _ -> Alcotest.fail "expected Below_target")

let test_check_stop_running () =
  let m = Measurement.create ~capacity:10.0 ~warmup:0.0 ~batch_length:1.0 () in
  Measurement.record m ~t0:0.0 ~t1:3.0 ~load:11.0;
  (match Measurement.check_stop m ~target:1e-3 with
  | Measurement.Running -> ()
  | _ -> Alcotest.fail "expected Running (too few batches)")

let test_final_estimate_prefers_direct () =
  let m = Measurement.create ~capacity:10.0 ~warmup:0.0 ~batch_length:1.0 () in
  Measurement.record m ~t0:0.0 ~t1:5.0 ~load:11.0;
  Measurement.record m ~t0:5.0 ~t1:10.0 ~load:9.0;
  let est, kind = Measurement.final_estimate m in
  check_close ~tol:1e-9 "direct value" 0.5 est;
  Alcotest.(check bool) "direct kind" true (kind = `Direct)

let test_final_estimate_fit_when_no_hits () =
  let m = Measurement.create ~capacity:100.0 ~warmup:0.0 ~batch_length:1.0 () in
  for i = 0 to 99 do
    let t = float_of_int i in
    Measurement.record m ~t0:t ~t1:(t +. 1.0)
      ~load:(50.0 +. (10.0 *. sin (t /. 3.0)))
  done;
  let est, kind = Measurement.final_estimate m in
  Alcotest.(check bool) "fit kind" true (kind = `Gaussian_fit);
  Alcotest.(check bool) "plausible fit" true (est > 0.0 && est < 1e-3)

let test_point_sampling_matches_time_weighted () =
  (* constant-rate alternation: both estimators converge to the same duty *)
  let m =
    Measurement.create ~sample_spacing:0.7 ~capacity:10.0 ~warmup:0.0
      ~batch_length:1.0 ()
  in
  for i = 0 to 9999 do
    let t = 2.0 *. float_of_int i in
    Measurement.record m ~t0:t ~t1:(t +. 0.6) ~load:11.0;
    Measurement.record m ~t0:(t +. 0.6) ~t1:(t +. 2.0) ~load:9.0
  done;
  check_close ~tol:1e-3 "time-weighted duty" 0.3 (Measurement.overflow_fraction m);
  (* point sampling on a 0.7 grid over period-2 segments: not aligned, so
     it also sees ~30% *)
  check_close ~tol:0.05 "point-sampled duty" 0.3 (Measurement.point_fraction m);
  Alcotest.(check bool) "sample count" true (Measurement.point_samples m > 20_000)

let test_point_sampling_respects_warmup () =
  let m =
    Measurement.create ~sample_spacing:1.0 ~capacity:10.0 ~warmup:100.0
      ~batch_length:1.0 ()
  in
  Measurement.record m ~t0:0.0 ~t1:50.0 ~load:11.0;
  Alcotest.(check int) "no samples before warmup" 0 (Measurement.point_samples m);
  Alcotest.(check bool) "nan before samples" true
    (Float.is_nan (Measurement.point_fraction m))

let test_no_sampling_configured () =
  let m = Measurement.create ~capacity:10.0 ~warmup:0.0 ~batch_length:1.0 () in
  Measurement.record m ~t0:0.0 ~t1:100.0 ~load:11.0;
  Alcotest.(check bool) "nan without spacing" true
    (Float.is_nan (Measurement.point_fraction m))

let test_zero_length_segments_ignored () =
  let m = Measurement.create ~capacity:10.0 ~warmup:0.0 ~batch_length:1.0 () in
  Measurement.record m ~t0:5.0 ~t1:5.0 ~load:100.0;
  Alcotest.(check (float 0.0)) "nothing recorded" 0.0 (Measurement.measured_time m)

let suite =
  [ ( "measurement",
      [ test "overflow fraction" test_overflow_fraction;
        test "warmup discard" test_warmup_discard;
        test "warmup straddle" test_warmup_straddle;
        test "boundary load" test_boundary_load_not_overflow;
        test "gaussian fit" test_gaussian_fit;
        test "stop: converged" test_check_stop_converged;
        test "stop: below target" test_check_stop_below_target;
        test "stop: running" test_check_stop_running;
        test "final estimate direct" test_final_estimate_prefers_direct;
        test "final estimate fit" test_final_estimate_fit_when_no_hits;
        test "point sampling agreement" test_point_sampling_matches_time_weighted;
        test "point sampling warmup" test_point_sampling_respects_warmup;
        test "point sampling off by default" test_no_sampling_configured;
        test "zero-length segments" test_zero_length_segments_ignored ] ) ]
