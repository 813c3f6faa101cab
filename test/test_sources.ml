open Mbac_traffic
open Mbac_oracles
open Test_util

let drive_source src ~until =
  (* fire all changes up to [until], return the number of changes *)
  let changes = ref 0 in
  while Source.next_change src <= until do
    Source.fire src ~now:(Source.next_change src);
    incr changes
  done;
  !changes

(* time-weighted mean/variance of a source's rate over a horizon *)
let time_stats src ~horizon =
  let acc = Mbac_stats.Welford.Weighted.create () in
  let t = ref 0.0 in
  while !t < horizon do
    let next = Float.min horizon (Source.next_change src) in
    Mbac_stats.Welford.Weighted.add acc ~weight:(next -. !t) (Source.rate src);
    t := next;
    if Source.next_change src <= !t then Source.fire src ~now:!t
  done;
  (Mbac_stats.Welford.Weighted.mean acc, Mbac_stats.Welford.Weighted.variance acc)

let test_rcbr_stats () =
  let rng = Mbac_stats.Rng.create ~seed:800 in
  let p = { Rcbr.mu = 2.0; sigma = 0.5; t_c = 1.0 } in
  let src = Rcbr.create rng p ~start:0.0 in
  let mean, var = time_stats src ~horizon:50_000.0 in
  check_close ~tol:0.02 "rcbr mean" 2.0 mean;
  check_close ~tol:0.06 "rcbr variance" 0.25 var

let test_rcbr_interval_rate () =
  (* ~ horizon / t_c changes expected *)
  let rng = Mbac_stats.Rng.create ~seed:801 in
  let src = Rcbr.create rng { Rcbr.mu = 1.0; sigma = 0.3; t_c = 2.0 } ~start:0.0 in
  let changes = drive_source src ~until:20_000.0 in
  check_close ~tol:0.05 "renegotiation rate" 10_000.0 (float_of_int changes)

let test_rcbr_autocorrelation () =
  (* aggregate of many rcbr sources should show acf ~ exp(-t/t_c) *)
  let rng = Mbac_stats.Rng.create ~seed:802 in
  let p = { Rcbr.mu = 1.0; sigma = 0.3; t_c = 1.0 } in
  let path =
    Aggregate.sample_path rng
      (fun rng ~start -> Rcbr.create rng p ~start)
      ~n_sources:50 ~horizon:4000.0 ~dt:0.25
  in
  List.iter
    (fun lag ->
      let expected = Rcbr.autocorrelation p (0.25 *. float_of_int lag) in
      let got = Mbac_stats.Descriptive.autocorrelation path lag in
      if abs_float (got -. expected) > 0.06 then
        Alcotest.failf "rcbr acf lag %d: %.3f vs %.3f" lag got expected)
    [ 1; 2; 4; 8; 12 ]

let test_rcbr_nonnegative =
  qcheck ~count:50 "rcbr rates are non-negative" QCheck.(int_range 0 10_000)
    (fun seed ->
      let rng = Mbac_stats.Rng.create ~seed in
      let src = Rcbr.create rng { Rcbr.mu = 0.5; sigma = 0.4; t_c = 0.5 } ~start:0.0 in
      let ok = ref (Source.rate src >= 0.0) in
      for _ = 1 to 50 do
        Source.fire src ~now:(Source.next_change src);
        if Source.rate src < 0.0 then ok := false
      done;
      !ok)

let test_onoff_stats () =
  let rng = Mbac_stats.Rng.create ~seed:803 in
  let p = { Onoff.peak = 3.0; mean_on = 2.0; mean_off = 1.0 } in
  let src = Onoff.create rng p ~start:0.0 in
  let mean, var = time_stats src ~horizon:60_000.0 in
  check_close ~tol:0.02 "onoff mean" (Onoff.mean p) mean;
  check_close ~tol:0.05 "onoff variance" (Onoff.variance p) var;
  check_close ~tol:1e-12 "onoff mean formula" 2.0 (Onoff.mean p);
  check_close ~tol:1e-12 "onoff var formula" 2.0 (Onoff.variance p)

let test_onoff_alternates () =
  let rng = Mbac_stats.Rng.create ~seed:804 in
  let src =
    Onoff.create rng { Onoff.peak = 1.0; mean_on = 1.0; mean_off = 1.0 } ~start:0.0
  in
  for _ = 1 to 20 do
    let before = Source.rate src in
    Source.fire src ~now:(Source.next_change src);
    let after = Source.rate src in
    Alcotest.(check bool) "alternates" true (before <> after)
  done

let test_markov_fluid_matches_onoff () =
  (* two-state markov fluid == on/off source *)
  let p_onoff = { Onoff.peak = 2.0; mean_on = 3.0; mean_off = 1.0 } in
  let p_mf =
    { Markov_fluid.generator =
        [| [| -1.0; 1.0 |]; [| 1.0 /. 3.0; -1.0 /. 3.0 |] |];
      (* state 0 = off (leaves at rate 1/mean_off), state 1 = on *)
      rates = [| 0.0; 2.0 |] }
  in
  check_close ~tol:1e-12 "means agree" (Onoff.mean p_onoff) (Markov_fluid.mean p_mf);
  check_close ~tol:1e-12 "variances agree" (Onoff.variance p_onoff)
    (Markov_fluid.variance p_mf)

let test_markov_fluid_simulated_stats () =
  let p =
    { Markov_fluid.generator =
        [| [| -2.0; 1.0; 1.0 |]; [| 0.5; -1.0; 0.5 |]; [| 1.0; 1.0; -2.0 |] |];
      rates = [| 0.0; 1.0; 4.0 |] }
  in
  let rng = Mbac_stats.Rng.create ~seed:805 in
  let src = Markov_fluid.create rng p ~start:0.0 in
  let mean, var = time_stats src ~horizon:100_000.0 in
  check_close ~tol:0.03 "mf mean" (Markov_fluid.mean p) mean;
  check_close ~tol:0.06 "mf variance" (Markov_fluid.variance p) var

let test_markov_fluid_validation () =
  Alcotest.check_raises "bad rows"
    (Invalid_argument "Markov_fluid: generator rows must sum to 0") (fun () ->
      Markov_fluid.validate
        { Markov_fluid.generator = [| [| -1.0; 2.0 |]; [| 1.0; -1.0 |] |];
          rates = [| 0.0; 1.0 |] })

let test_ou_stats () =
  let rng = Mbac_stats.Rng.create ~seed:806 in
  let p = { Ou_source.mu = 5.0; sigma = 1.0; t_c = 1.0; dt = 0.1 } in
  let src = Ou_source.create rng p ~start:0.0 in
  let mean, var = time_stats src ~horizon:20_000.0 in
  check_close ~tol:0.02 "ou mean" 5.0 mean;
  check_close ~tol:0.08 "ou variance" 1.0 var

let test_ou_autocorrelation () =
  let rng = Mbac_stats.Rng.create ~seed:807 in
  let p = { Ou_source.mu = 5.0; sigma = 1.0; t_c = 2.0; dt = 0.2 } in
  let src = Ou_source.create rng p ~start:0.0 in
  let n = 100_000 in
  let xs = Array.make n 0.0 in
  for i = 0 to n - 1 do
    xs.(i) <- Source.rate src;
    Source.fire src ~now:(Source.next_change src)
  done;
  List.iter
    (fun lag ->
      let expected = exp (-.(0.2 *. float_of_int lag) /. 2.0) in
      let got = Mbac_stats.Descriptive.autocorrelation xs lag in
      if abs_float (got -. expected) > 0.05 then
        Alcotest.failf "ou acf lag %d: %.3f vs %.3f" lag got expected)
    [ 1; 5; 10; 20 ]

let suite =
  [ ( "sources",
      [ slow_test "rcbr stationary stats" test_rcbr_stats;
        test "rcbr renegotiation rate" test_rcbr_interval_rate;
        slow_test "rcbr autocorrelation" test_rcbr_autocorrelation;
        test_rcbr_nonnegative;
        slow_test "onoff stationary stats" test_onoff_stats;
        test "onoff alternation" test_onoff_alternates;
        test "markov fluid = onoff" test_markov_fluid_matches_onoff;
        slow_test "markov fluid stats" test_markov_fluid_simulated_stats;
        test "markov fluid validation" test_markov_fluid_validation;
        slow_test "ou stats" test_ou_stats;
        slow_test "ou autocorrelation" test_ou_autocorrelation ] ) ]
