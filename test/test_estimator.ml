open Test_util

let obs ~now ~rates =
  let n = Array.length rates in
  let sum = Array.fold_left ( +. ) 0.0 rates in
  let sq = Array.fold_left (fun a r -> a +. (r *. r)) 0.0 rates in
  Mbac.Observation.make ~now ~n ~sum_rate:sum ~sum_sq:sq

let test_memoryless_tracks_last () =
  let e = Mbac.Estimator.memoryless () in
  Alcotest.(check bool) "no estimate initially" true
    (Mbac.Estimator.current e = None);
  Mbac.Estimator.observe e (obs ~now:0.0 ~rates:[| 1.0; 3.0 |]);
  (match Mbac.Estimator.current e with
  | Some { Mbac.Estimator.mu_hat; var_hat } ->
      check_close ~tol:1e-12 "mean" 2.0 mu_hat;
      check_close ~tol:1e-12 "var" 2.0 var_hat
  | None -> Alcotest.fail "expected estimate");
  (* next observation fully replaces the previous one *)
  Mbac.Estimator.observe e (obs ~now:1.0 ~rates:[| 10.0; 10.0 |]);
  (match Mbac.Estimator.current e with
  | Some { Mbac.Estimator.mu_hat; var_hat } ->
      check_close ~tol:1e-12 "mean replaced" 10.0 mu_hat;
      check_close_abs ~tol:1e-12 "var replaced" 0.0 var_hat
  | None -> Alcotest.fail "expected estimate")

let test_ewma_decay_exact () =
  (* Signal holds value a on [0, dt), then we observe value b at dt:
     filtered estimate at dt is a + (est0 - a) e^{-dt/Tm} with est0 = a,
     i.e. still a; then holding b for another dt pulls it toward b. *)
  let t_m = 2.0 in
  let e = Mbac.Estimator.ewma ~t_m in
  Mbac.Estimator.observe e (obs ~now:0.0 ~rates:[| 4.0; 4.0 |]);
  Mbac.Estimator.observe e (obs ~now:1.0 ~rates:[| 8.0; 8.0 |]);
  (* estimate still 4.0: input was 4.0 on [0,1) *)
  (match Mbac.Estimator.current e with
  | Some { Mbac.Estimator.mu_hat; _ } ->
      check_close ~tol:1e-12 "after first segment" 4.0 mu_hat
  | None -> Alcotest.fail "no estimate");
  Mbac.Estimator.observe e (obs ~now:3.0 ~rates:[| 8.0; 8.0 |]);
  (* input 8.0 held on [1,3): est = 8 + (4 - 8) e^{-2/2} *)
  (match Mbac.Estimator.current e with
  | Some { Mbac.Estimator.mu_hat; _ } ->
      check_close ~tol:1e-12 "exact exponential decay"
        (8.0 +. ((4.0 -. 8.0) *. exp (-1.0)))
        mu_hat
  | None -> Alcotest.fail "no estimate")

let test_ewma_fixed_point =
  qcheck ~count:100 "constant input is a fixed point of the filter"
    QCheck.(pair (float_range 0.1 100.0) (float_range 0.1 10.0))
    (fun (t_m, x) ->
      let e = Mbac.Estimator.ewma ~t_m in
      for i = 0 to 50 do
        Mbac.Estimator.observe e
          (obs ~now:(float_of_int i *. 0.3) ~rates:[| x; x |])
      done;
      match Mbac.Estimator.current e with
      | Some { Mbac.Estimator.mu_hat; _ } -> abs_float (mu_hat -. x) <= 1e-9
      | None -> false)

let test_ewma_zero_is_memoryless () =
  let e = Mbac.Estimator.ewma ~t_m:0.0 in
  Mbac.Estimator.observe e (obs ~now:0.0 ~rates:[| 1.0; 1.0 |]);
  Mbac.Estimator.observe e (obs ~now:5.0 ~rates:[| 9.0; 9.0 |]);
  match Mbac.Estimator.current e with
  | Some { Mbac.Estimator.mu_hat; _ } ->
      check_close ~tol:1e-12 "jumps instantly" 9.0 mu_hat
  | None -> Alcotest.fail "no estimate"

let test_ewma_variance_reduction () =
  (* Feed a noisy cross-section; the filtered mean should fluctuate much
     less than the memoryless one (the §4.3 point). *)
  let rng = Mbac_stats.Rng.create ~seed:1000 in
  let em = Mbac.Estimator.memoryless () in
  let ew = Mbac.Estimator.ewma ~t_m:50.0 in
  let acc_m = Mbac_stats.Welford.create () in
  let acc_w = Mbac_stats.Welford.create () in
  for i = 0 to 5000 do
    let rates =
      Array.init 20 (fun _ ->
          Mbac_stats.Sample.gaussian rng ~mu:1.0 ~sigma:0.3)
    in
    let o = obs ~now:(float_of_int i) ~rates in
    Mbac.Estimator.observe em o;
    Mbac.Estimator.observe ew o;
    if i > 500 then begin
      (match Mbac.Estimator.current em with
      | Some { Mbac.Estimator.mu_hat; _ } -> Mbac_stats.Welford.add acc_m mu_hat
      | None -> ());
      match Mbac.Estimator.current ew with
      | Some { Mbac.Estimator.mu_hat; _ } -> Mbac_stats.Welford.add acc_w mu_hat
      | None -> ()
    end
  done;
  let var_m = Mbac_stats.Welford.variance acc_m in
  let var_w = Mbac_stats.Welford.variance acc_w in
  Alcotest.(check bool) "memory reduces estimator variance" true
    (var_w < var_m /. 10.0);
  (* both unbiased *)
  check_close ~tol:0.02 "memoryless unbiased" 1.0 (Mbac_stats.Welford.mean acc_m);
  check_close ~tol:0.02 "filtered unbiased" 1.0 (Mbac_stats.Welford.mean acc_w)

let test_sliding_window_average () =
  let e = Mbac.Estimator.sliding_window ~t_w:10.0 in
  (* value 2 on [0,5), value 6 on [5,10): window average at 10 = 4 *)
  Mbac.Estimator.observe e (obs ~now:0.0 ~rates:[| 2.0; 2.0 |]);
  Mbac.Estimator.observe e (obs ~now:5.0 ~rates:[| 6.0; 6.0 |]);
  Mbac.Estimator.observe e (obs ~now:10.0 ~rates:[| 0.0; 0.0 |]);
  (match Mbac.Estimator.current e with
  | Some { Mbac.Estimator.mu_hat; _ } ->
      check_close ~tol:1e-12 "window average" 4.0 mu_hat
  | None -> Alcotest.fail "no estimate");
  (* push the window fully past the old samples: 0 on [10, 25) *)
  Mbac.Estimator.observe e (obs ~now:25.0 ~rates:[| 0.0; 0.0 |]);
  match Mbac.Estimator.current e with
  | Some { Mbac.Estimator.mu_hat; _ } ->
      check_close_abs ~tol:1e-9 "old samples evicted" 0.0 mu_hat
  | None -> Alcotest.fail "no estimate"

let test_sliding_window_partial_eviction () =
  let e = Mbac.Estimator.sliding_window ~t_w:4.0 in
  Mbac.Estimator.observe e (obs ~now:0.0 ~rates:[| 10.0; 10.0 |]);
  Mbac.Estimator.observe e (obs ~now:2.0 ~rates:[| 0.0; 0.0 |]);
  Mbac.Estimator.observe e (obs ~now:5.0 ~rates:[| 0.0; 0.0 |]);
  (* window [1,5): 10 on [1,2) (trimmed), 0 on [2,5) -> mean 2.5 *)
  match Mbac.Estimator.current e with
  | Some { Mbac.Estimator.mu_hat; _ } ->
      check_close ~tol:1e-9 "trimmed head segment" 2.5 mu_hat
  | None -> Alcotest.fail "no estimate"

let test_aggregate_only_recovers_variance () =
  (* n iid flows resampled independently each step: Var_time(S/n) =
     sigma^2/n, so var_hat = n Var(S/n) ~ sigma^2. *)
  let rng = Mbac_stats.Rng.create ~seed:1001 in
  let e = Mbac.Estimator.aggregate_only ~t_m:200.0 in
  let n = 50 in
  for i = 0 to 20_000 do
    let rates =
      Array.init n (fun _ -> Mbac_stats.Sample.gaussian rng ~mu:2.0 ~sigma:0.5)
    in
    Mbac.Estimator.observe e (obs ~now:(float_of_int i) ~rates)
  done;
  match Mbac.Estimator.current e with
  | Some { Mbac.Estimator.mu_hat; var_hat } ->
      check_close ~tol:0.05 "aggregate mean" 2.0 mu_hat;
      check_close ~tol:0.3 "recovered per-flow variance" 0.25 var_hat
  | None -> Alcotest.fail "no estimate"

let test_reset () =
  List.iter
    (fun e ->
      Mbac.Estimator.observe e (obs ~now:0.0 ~rates:[| 1.0; 2.0 |]);
      Alcotest.(check bool) "has estimate" true (Mbac.Estimator.current e <> None);
      Mbac.Estimator.reset e;
      Alcotest.(check bool)
        (Mbac.Estimator.name e ^ " reset clears")
        true
        (Mbac.Estimator.current e = None))
    [ Mbac.Estimator.memoryless (); Mbac.Estimator.ewma ~t_m:5.0;
      Mbac.Estimator.sliding_window ~t_w:5.0;
      Mbac.Estimator.aggregate_only ~t_m:5.0 ]

let test_empty_observations_ignored () =
  let e = Mbac.Estimator.ewma ~t_m:5.0 in
  Mbac.Estimator.observe e (obs ~now:0.0 ~rates:[| 3.0; 3.0 |]);
  Mbac.Estimator.observe e (obs ~now:1.0 ~rates:[||]);
  match Mbac.Estimator.current e with
  | Some { Mbac.Estimator.mu_hat; _ } ->
      check_close ~tol:1e-12 "empty cross-section ignored" 3.0 mu_hat
  | None -> Alcotest.fail "estimate lost"

let test_invalid () =
  Alcotest.check_raises "ewma negative"
    (Invalid_argument "Estimator.ewma: requires t_m >= 0") (fun () ->
      ignore (Mbac.Estimator.ewma ~t_m:(-1.0)));
  Alcotest.check_raises "window nonpositive"
    (Invalid_argument "Estimator.sliding_window: requires t_w > 0") (fun () ->
      ignore (Mbac.Estimator.sliding_window ~t_w:0.0))

let suite =
  [ ( "estimator",
      [ test "memoryless tracks last" test_memoryless_tracks_last;
        test "ewma exact decay" test_ewma_decay_exact;
        test_ewma_fixed_point;
        test "ewma(0) = memoryless" test_ewma_zero_is_memoryless;
        slow_test "memory reduces estimator variance" test_ewma_variance_reduction;
        test "sliding window average" test_sliding_window_average;
        test "sliding window partial eviction" test_sliding_window_partial_eviction;
        slow_test "aggregate-only variance recovery" test_aggregate_only_recovers_variance;
        test "reset" test_reset;
        test "empty observations" test_empty_observations_ignored;
        test "invalid" test_invalid ] ) ]
