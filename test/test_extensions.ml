(* Modulated (non-stationary) sources, the utility module, the fluid
   buffer, and the extended simulator modes. *)
open Test_util

(* ---------- Modulated sources ---------- *)

let test_modulated_factor_lookup () =
  let s = Mbac_traffic.Modulated.schedule [| (0.0, 1.0); (10.0, 2.0); (20.0, 0.5) |] in
  check_close ~tol:1e-12 "before" 1.0 (Mbac_traffic.Modulated.factor_at s (-5.0));
  check_close ~tol:1e-12 "first" 1.0 (Mbac_traffic.Modulated.factor_at s 5.0);
  check_close ~tol:1e-12 "at switch" 2.0 (Mbac_traffic.Modulated.factor_at s 10.0);
  check_close ~tol:1e-12 "mid" 2.0 (Mbac_traffic.Modulated.factor_at s 15.0);
  check_close ~tol:1e-12 "last" 0.5 (Mbac_traffic.Modulated.factor_at s 100.0)

let test_modulated_scales_rates () =
  (* constant inner source via a constant trace *)
  let trace = Mbac_traffic.Trace.create ~dt:1.0 [| 3.0; 3.0 |] in
  let inner = Mbac_traffic.Trace_source.create_at_offset trace ~offset:0.0 ~start:0.0 in
  let sched = Mbac_traffic.Modulated.schedule [| (0.0, 1.0); (5.0, 2.0) |] in
  let src = Mbac_traffic.Modulated.create ~start:0.0 sched inner in
  check_close ~tol:1e-12 "initial" 3.0 (Mbac_traffic.Source.rate src);
  (* next change is the schedule switch (inner is constant with period 2,
     but rate stays equal, so either way rate must become 6 at t >= 5) *)
  let rec advance_to t =
    if Mbac_traffic.Source.next_change src <= t then begin
      Mbac_traffic.Source.fire src
        ~now:(Mbac_traffic.Source.next_change src);
      advance_to t
    end
  in
  advance_to 4.9;
  check_close ~tol:1e-12 "still unscaled" 3.0 (Mbac_traffic.Source.rate src);
  advance_to 5.0;
  check_close ~tol:1e-12 "scaled after switch" 6.0 (Mbac_traffic.Source.rate src)

let test_modulated_late_start () =
  (* a flow starting at t=100 must not be handed switch epochs in the past *)
  let trace = Mbac_traffic.Trace.create ~dt:1.0 [| 1.0; 1.0 |] in
  let inner =
    Mbac_traffic.Trace_source.create_at_offset trace ~offset:0.0 ~start:100.0
  in
  let sched =
    Mbac_traffic.Modulated.schedule [| (0.0, 1.0); (50.0, 2.0); (150.0, 3.0) |]
  in
  let src = Mbac_traffic.Modulated.create ~start:100.0 sched inner in
  Alcotest.(check bool) "next change in the future" true
    (Mbac_traffic.Source.next_change src > 100.0);
  check_close ~tol:1e-12 "factor at start" 2.0 (Mbac_traffic.Source.rate src)

(* A schedule is checked when it is built: [Modulated.create] only ever
   sees a valid one. *)
let test_modulated_validation () =
  let refused what msg s =
    Alcotest.check_raises what (Invalid_argument msg) (fun () ->
        ignore (Mbac_traffic.Modulated.schedule s))
  in
  refused "unsorted" "Modulated: schedule times must be increasing"
    [| (1.0, 1.0); (0.5, 2.0) |];
  refused "repeated time" "Modulated: schedule times must be increasing"
    [| (1.0, 1.0); (1.0, 2.0) |];
  refused "zero factor" "Modulated: non-positive factor"
    [| (0.0, 1.0); (5.0, 0.0) |];
  refused "negative factor" "Modulated: non-positive factor"
    [| (0.0, -1.0) |];
  refused "NaN factor" "Modulated: non-positive factor" [| (0.0, nan) |];
  refused "empty" "Modulated: empty schedule" [||]

(* ---------- Utility ---------- *)

let test_utility_values () =
  let open Mbac.Utility in
  check_close ~tol:1e-12 "step full" 1.0 (eval Step 1.0);
  Alcotest.(check (float 0.0)) "step partial" 0.0 (eval Step 0.999);
  check_close ~tol:1e-12 "linear" 0.7 (eval Linear 0.7);
  check_close ~tol:1e-12 "power sqrt" (sqrt 0.81) (eval (Power 0.5) 0.81);
  check_close ~tol:1e-12 "threshold above" 1.0 (eval (Threshold 0.9) 0.95);
  check_close ~tol:1e-12 "threshold below" (0.45 /. 0.9)
    (eval (Threshold 0.9) 0.45);
  (* clamping *)
  check_close ~tol:1e-12 "clamp high" 1.0 (eval Linear 1.5);
  Alcotest.(check (float 0.0)) "clamp low" 0.0 (eval Linear (-0.5))

let test_utility_ordering =
  qcheck ~count:200 "concave utilities dominate linear on [0,1]"
    QCheck.(float_range 0.0 1.0)
    (fun f ->
      let open Mbac.Utility in
      eval (Power 0.5) f >= eval Linear f -. 1e-12
      && eval Linear f >= eval Step f -. 1e-12)

let test_delivered_fraction () =
  check_close ~tol:1e-12 "under capacity" 1.0
    (Mbac.Utility.delivered_fraction ~capacity:10.0 ~load:5.0);
  check_close ~tol:1e-12 "over capacity" 0.5
    (Mbac.Utility.delivered_fraction ~capacity:10.0 ~load:20.0);
  check_close ~tol:1e-12 "zero load" 1.0
    (Mbac.Utility.delivered_fraction ~capacity:10.0 ~load:0.0)

(* ---------- Fluid buffer ---------- *)

let test_buffer_fill_and_loss () =
  let b = Mbac_sim.Fluid_buffer.create ~capacity:10.0 ~size:5.0 in
  (* load 12 for 2 time units: fills at rate 2, hits 4 — no loss *)
  Mbac_sim.Fluid_buffer.feed b ~duration:2.0 ~load:12.0;
  check_close ~tol:1e-12 "level" 4.0 (Mbac_sim.Fluid_buffer.level b);
  Alcotest.(check (float 0.0)) "no loss yet" 0.0 (Mbac_sim.Fluid_buffer.loss_time b);
  (* 2 more units: fills remaining 1 in 0.5, then loses for 1.5 *)
  Mbac_sim.Fluid_buffer.feed b ~duration:2.0 ~load:12.0;
  check_close ~tol:1e-12 "full" 5.0 (Mbac_sim.Fluid_buffer.level b);
  check_close ~tol:1e-12 "loss time" 1.5 (Mbac_sim.Fluid_buffer.loss_time b);
  check_close ~tol:1e-12 "lost volume" 3.0 (Mbac_sim.Fluid_buffer.lost_volume b);
  (* drain below empty clamps at 0 *)
  Mbac_sim.Fluid_buffer.feed b ~duration:10.0 ~load:0.0;
  Alcotest.(check (float 0.0)) "drained" 0.0 (Mbac_sim.Fluid_buffer.level b);
  check_close ~tol:1e-12 "loss fraction" (1.5 /. 14.0)
    (Mbac_sim.Fluid_buffer.loss_time_fraction b)

let test_buffer_never_loses_below_capacity =
  qcheck ~count:200 "no loss while load <= capacity"
    QCheck.(list_of_size Gen.(int_range 1 50) (float_range 0.0 10.0))
    (fun loads ->
      let b = Mbac_sim.Fluid_buffer.create ~capacity:10.0 ~size:1.0 in
      List.iter (fun load -> Mbac_sim.Fluid_buffer.feed b ~duration:1.0 ~load) loads;
      Mbac_sim.Fluid_buffer.loss_time b = 0.0)

let test_buffer_conservation =
  qcheck ~count:200 "volume conservation: offered = delivered + lost + stored"
    QCheck.(list_of_size Gen.(int_range 1 60) (float_range 0.0 25.0))
    (fun loads ->
      let capacity = 10.0 in
      let b = Mbac_sim.Fluid_buffer.create ~capacity ~size:3.0 in
      (* track delivered = min over each unit segment: capacity when busy...
         easier: delivered = offered - lost - level *)
      List.iter (fun load -> Mbac_sim.Fluid_buffer.feed b ~duration:1.0 ~load) loads;
      let offered = Mbac_sim.Fluid_buffer.offered_volume b in
      let lost = Mbac_sim.Fluid_buffer.lost_volume b in
      let stored = Mbac_sim.Fluid_buffer.level b in
      let delivered = offered -. lost -. stored in
      (* delivered cannot exceed capacity x time and must be non-negative *)
      delivered >= -1e-9
      && delivered
         <= (capacity *. Mbac_sim.Fluid_buffer.total_time b) +. 1e-9)

(* ---------- Extended simulator modes ---------- *)

let sim_params =
  Mbac.Params.make ~n:50.0 ~mu:1.0 ~sigma:0.3 ~t_h:200.0 ~t_c:1.0 ~p_q:1e-2

let base_cfg () =
  let t_h_tilde = Mbac.Params.t_h_tilde sim_params in
  { (Mbac_sim.Continuous_load.default_config ~capacity:50.0
       ~holding_time_mean:200.0 ~target_p_q:1e-2)
    with
    Mbac_sim.Continuous_load.warmup = 5.0 *. t_h_tilde;
    batch_length = 2.0 *. t_h_tilde;
    max_events = 400_000 }

let make_source rng ~start =
  Mbac_traffic.Rcbr.create rng
    { Mbac_traffic.Rcbr.mu = 1.0; sigma = 0.3; t_c = 1.0 }
    ~start

let controller () =
  Mbac.Controller.with_memory ~capacity:50.0 ~p_ce:1e-2
    ~t_m:(Mbac.Params.t_h_tilde sim_params)

let test_poisson_light_load_no_blocking () =
  let cfg =
    { (base_cfg ()) with Mbac_sim.Continuous_load.arrival = `Poisson 0.05 }
  in
  (* offered load = 0.05 * 200 = 10 flows << capacity *)
  let r =
    Mbac_sim.Continuous_load.run (Mbac_stats.Rng.create ~seed:42) cfg
      ~controller:(controller ()) ~make_source
  in
  let open Mbac_sim.Continuous_load in
  Alcotest.(check bool) "little blocking" true (r.blocking_probability < 0.02);
  Alcotest.(check bool) "population ~ 10" true
    (r.mean_flows > 6.0 && r.mean_flows < 14.0);
  Alcotest.(check bool) "blocking counted" true (r.blocked >= 0)

let test_poisson_overload_blocks () =
  let cfg =
    { (base_cfg ()) with Mbac_sim.Continuous_load.arrival = `Poisson 2.0 }
  in
  (* offered 400 flows on a ~45-flow link: most arrivals blocked *)
  let r =
    Mbac_sim.Continuous_load.run (Mbac_stats.Rng.create ~seed:43) cfg
      ~controller:(controller ()) ~make_source
  in
  let open Mbac_sim.Continuous_load in
  Alcotest.(check bool) "heavy blocking" true (r.blocking_probability > 0.5);
  (* conservation: admitted + blocked = arrivals seen *)
  Alcotest.(check bool) "accounting" true (r.admitted + r.blocked > 0)

let test_poisson_below_continuous_load () =
  let run_arrival arrival seed =
    let cfg = { (base_cfg ()) with Mbac_sim.Continuous_load.arrival } in
    (Mbac_sim.Continuous_load.run (Mbac_stats.Rng.create ~seed) cfg
       ~controller:(controller ()) ~make_source)
      .Mbac_sim.Continuous_load.p_f
  in
  let p_light = run_arrival (`Poisson 0.05) 7 in
  let p_inf = run_arrival `Infinite 7 in
  Alcotest.(check bool) "light load has (much) smaller p_f" true
    (p_light <= p_inf +. 1e-9)

let test_reneg_blocking_counts () =
  let cfg =
    { (base_cfg ()) with
      Mbac_sim.Continuous_load.link = `Renegotiation_blocking }
  in
  let r =
    Mbac_sim.Continuous_load.run (Mbac_stats.Rng.create ~seed:44) cfg
      ~controller:(controller ()) ~make_source
  in
  let open Mbac_sim.Continuous_load in
  Alcotest.(check bool) "attempts counted" true (r.reneg_attempts > 1000);
  Alcotest.(check bool) "failures are a small fraction" true
    (r.reneg_failure_probability < 0.2);
  Alcotest.(check bool) "failures >= 0" true (r.reneg_failures >= 0)

let test_buffered_less_than_bufferless () =
  let run_link link seed =
    let cfg = { (base_cfg ()) with Mbac_sim.Continuous_load.link } in
    Mbac_sim.Continuous_load.run (Mbac_stats.Rng.create ~seed) cfg
      ~controller:(controller ()) ~make_source
  in
  let r_buf = run_link (`Buffered 5.0) 45 in
  let open Mbac_sim.Continuous_load in
  (* buffered loss-time fraction <= bufferless overflow fraction, which is
     measured in the same run (overflow is defined on the same load) *)
  Alcotest.(check bool) "loss <= overflow" true
    (r_buf.buffer_loss_fraction <= r_buf.p_f +. 1e-9)

let test_mean_utility_matches_pf () =
  (* with the Step utility, E[u] = 1 - p_f (time-weighted, same warmup) *)
  let r =
    Mbac_sim.Continuous_load.run (Mbac_stats.Rng.create ~seed:46) (base_cfg ())
      ~controller:(Mbac.Controller.memoryless ~capacity:50.0 ~p_ce:1e-2)
      ~make_source
  in
  let open Mbac_sim.Continuous_load in
  (* p_f reported may be the converged-batch estimate; compare loosely *)
  Alcotest.(check bool)
    (Printf.sprintf "1 - E[u] = %.4g vs p_f = %.4g" (1.0 -. r.mean_utility) r.p_f)
    true
    (abs_float (1.0 -. r.mean_utility -. r.p_f) < 0.5 *. r.p_f +. 1e-3)

let test_linear_utility_bounds () =
  let cfg =
    { (base_cfg ()) with Mbac_sim.Continuous_load.utility = Mbac.Utility.Linear }
  in
  let r =
    Mbac_sim.Continuous_load.run (Mbac_stats.Rng.create ~seed:47) cfg
      ~controller:(Mbac.Controller.memoryless ~capacity:50.0 ~p_ce:1e-2)
      ~make_source
  in
  let open Mbac_sim.Continuous_load in
  Alcotest.(check bool) "utility in [1 - p_f, 1]" true
    (r.mean_utility >= 1.0 -. r.p_f -. 1e-9 && r.mean_utility <= 1.0 +. 1e-12)

let suite =
  [ ( "extensions",
      [ test "modulated factor lookup" test_modulated_factor_lookup;
        test "modulated scaling" test_modulated_scales_rates;
        test "modulated late start" test_modulated_late_start;
        test "modulated validation" test_modulated_validation;
        test "utility values" test_utility_values;
        test_utility_ordering;
        test "delivered fraction" test_delivered_fraction;
        test "buffer fill and loss" test_buffer_fill_and_loss;
        test_buffer_never_loses_below_capacity;
        test_buffer_conservation;
        slow_test "poisson light load" test_poisson_light_load_no_blocking;
        slow_test "poisson overload blocks" test_poisson_overload_blocks;
        slow_test "finite < continuous load" test_poisson_below_continuous_load;
        slow_test "renegotiation accounting" test_reneg_blocking_counts;
        slow_test "buffered loss <= bufferless overflow" test_buffered_less_than_bufferless;
        slow_test "step utility = 1 - p_f" test_mean_utility_matches_pf;
        slow_test "linear utility bounds" test_linear_utility_bounds ] ) ]
