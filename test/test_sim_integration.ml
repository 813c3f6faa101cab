(* End-to-end tests of the continuous-load simulator: conservation laws,
   determinism, and theory-vs-simulation agreement on small systems. *)
open Test_util

let params = Mbac.Params.make ~n:50.0 ~mu:1.0 ~sigma:0.3 ~t_h:200.0 ~t_c:1.0 ~p_q:1e-2

let make_source rng ~start =
  Mbac_traffic.Rcbr.create rng
    { Mbac_traffic.Rcbr.mu = 1.0; sigma = 0.3; t_c = 1.0 }
    ~start

let cfg ?(max_events = 400_000) () =
  let t_h_tilde = Mbac.Params.t_h_tilde params in
  { (Mbac_sim.Continuous_load.default_config
       ~capacity:(Mbac.Params.capacity params)
       ~holding_time_mean:params.Mbac.Params.t_h
       ~target_p_q:params.Mbac.Params.p_q)
    with
    Mbac_sim.Continuous_load.warmup = 5.0 *. t_h_tilde;
    batch_length = 2.0 *. t_h_tilde;
    max_events }

let run ?max_events ?(seed = 77) controller =
  Mbac_sim.Continuous_load.run
    (Mbac_stats.Rng.create ~seed)
    (cfg ?max_events ()) ~controller ~make_source

let test_conservation () =
  let r = run (Mbac.Controller.perfect params) in
  let open Mbac_sim.Continuous_load in
  (* flows in system = admitted - departed, and can never be negative *)
  Alcotest.(check bool) "admitted >= departed" true (r.admitted >= r.departed);
  (* mean population is near m* for the perfect controller *)
  let m_star = float_of_int (Mbac.Criterion.m_star params) in
  Alcotest.(check bool) "population tracks m*" true
    (abs_float (r.mean_flows -. m_star) < 1.5);
  (* measured load per flow ~ mu *)
  check_close ~tol:0.05 "per-flow load" 1.0 (r.mean_load /. r.mean_flows)

let test_determinism () =
  let r1 = run ~seed:123 (Mbac.Controller.memoryless ~capacity:50.0 ~p_ce:1e-2) in
  let r2 = run ~seed:123 (Mbac.Controller.memoryless ~capacity:50.0 ~p_ce:1e-2) in
  let open Mbac_sim.Continuous_load in
  Alcotest.(check bool) "identical runs" true
    (r1.p_f = r2.p_f && r1.admitted = r2.admitted && r1.events = r2.events)

let test_seed_sensitivity () =
  let r1 = run ~seed:1 (Mbac.Controller.perfect params) in
  let r2 = run ~seed:2 (Mbac.Controller.perfect params) in
  Alcotest.(check bool) "different seeds differ" true
    (r1.Mbac_sim.Continuous_load.admitted <> r2.Mbac_sim.Continuous_load.admitted)

let test_perfect_meets_target () =
  let r = run ~max_events:1_500_000 (Mbac.Controller.perfect params) in
  (* small system: CLT approximation is loose, allow a factor of ~2.5 *)
  let p_f = r.Mbac_sim.Continuous_load.p_f in
  Alcotest.(check bool)
    (Printf.sprintf "perfect p_f=%.3g vs p_q=%.3g" p_f params.Mbac.Params.p_q)
    true
    (p_f < 2.5 *. params.Mbac.Params.p_q)

let test_memoryless_violates_target () =
  let r =
    run ~max_events:600_000 (Mbac.Controller.memoryless ~capacity:50.0 ~p_ce:1e-2)
  in
  Alcotest.(check bool) "memoryless misses by >3x" true
    (r.Mbac_sim.Continuous_load.p_f > 3.0 *. params.Mbac.Params.p_q)

let test_memory_restores_target () =
  let t_m = Mbac.Params.t_h_tilde params in
  let r =
    run ~max_events:1_500_000
      (Mbac.Controller.with_memory ~capacity:50.0 ~p_ce:1e-2 ~t_m)
  in
  Alcotest.(check bool) "memory window restores QoS" true
    (r.Mbac_sim.Continuous_load.p_f < 2.5 *. params.Mbac.Params.p_q)

let test_never_exceeds_admissible_peak_rate () =
  (* With a peak-rate controller the population must never exceed
     floor(c / peak). *)
  let peak = 1.9 in
  let limit = Mbac.Criterion.peak_rate_count ~capacity:50.0 ~peak in
  let r = run (Mbac.Controller.peak_rate ~capacity:50.0 ~peak) in
  Alcotest.(check bool) "population bounded" true
    (r.Mbac_sim.Continuous_load.mean_flows <= float_of_int limit +. 1e-9);
  (* and utilization is proportionally low *)
  Alcotest.(check bool) "low utilization" true
    (r.Mbac_sim.Continuous_load.utilization < 0.6)

let test_utilization_ordering () =
  (* tighter targets carry less traffic *)
  let loose = run (Mbac.Controller.with_memory ~capacity:50.0 ~p_ce:1e-2 ~t_m:28.0) in
  let tight = run (Mbac.Controller.with_memory ~capacity:50.0 ~p_ce:1e-4 ~t_m:28.0) in
  Alcotest.(check bool) "tight target -> lower utilization" true
    (tight.Mbac_sim.Continuous_load.utilization
     < loose.Mbac_sim.Continuous_load.utilization)

let test_gaussian_fit_for_tiny_pf () =
  (* run a very conservative controller: direct counting sees nothing, the
     below-target rule should fire with a Gaussian-fit estimate *)
  let r =
    run ~max_events:1_000_000
      (Mbac.Controller.with_memory ~capacity:50.0 ~p_ce:1e-8 ~t_m:28.0)
  in
  let open Mbac_sim.Continuous_load in
  Alcotest.(check bool) "fit kind" true (r.estimate_kind = `Gaussian_fit);
  Alcotest.(check bool) "tiny estimate" true (r.p_f < 1e-4)

let test_empty_arrivals_never_happen () =
  (* under continuous load the system is never left empty after startup *)
  let r = run (Mbac.Controller.perfect params) in
  Alcotest.(check bool) "population stayed positive on average" true
    (r.Mbac_sim.Continuous_load.mean_flows > 10.0)

(* Fuzz: an arbitrary (bounded, possibly erratic) admissible function
   must never crash the simulator, and the run must satisfy the basic
   accounting identities. *)
let test_random_controller_fuzz =
  qcheck ~count:25 "random controllers keep the simulator sound"
    QCheck.(pair (int_range 0 10_000) (int_range 1 60))
    (fun (seed, cap) ->
      let fuzz_rng = Mbac_stats.Rng.create ~seed in
      let controller =
        Mbac.Controller.custom ~name:"fuzz" (fun _ ->
            Mbac_stats.Rng.int fuzz_rng (cap + 1))
      in
      let cfg =
        { (Mbac_sim.Continuous_load.default_config ~capacity:50.0
             ~holding_time_mean:50.0 ~target_p_q:1e-2)
          with
          Mbac_sim.Continuous_load.warmup = 10.0;
          batch_length = 20.0;
          max_events = 30_000 }
      in
      let r =
        Mbac_sim.Continuous_load.run
          (Mbac_stats.Rng.create ~seed:(seed + 1))
          cfg ~controller ~make_source
      in
      let open Mbac_sim.Continuous_load in
      r.admitted >= r.departed
      && r.admitted - r.departed <= cap + 1
      && r.p_f >= 0.0 && r.p_f <= 1.0
      && r.sim_time >= 0.0)

let suite =
  [ ( "sim_integration",
      [ slow_test "conservation laws" test_conservation;
        test "determinism" test_determinism;
        test "seed sensitivity" test_seed_sensitivity;
        slow_test "perfect controller meets target" test_perfect_meets_target;
        slow_test "memoryless violates target" test_memoryless_violates_target;
        slow_test "memory restores target" test_memory_restores_target;
        slow_test "peak-rate bound respected" test_never_exceeds_admissible_peak_rate;
        slow_test "utilization ordering" test_utilization_ordering;
        slow_test "gaussian fit for tiny p_f" test_gaussian_fit_for_tiny_pf;
        slow_test "system stays populated" test_empty_arrivals_never_happen;
        test_random_controller_fuzz ] ) ]
