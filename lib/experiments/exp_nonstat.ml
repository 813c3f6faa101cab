(** Non-stationary traffic (extension of §2's stationarity caveat): the
    per-flow mean rate shifts by a step in the middle of the run.  A
    memory window ~T~_h adapts; an over-long window reacts too slowly and
    under-admits or over-admits for a long transient. *)

type row = {
  t_m : float;
  p_f : float;
  kind : [ `Direct | `Gaussian_fit ];
  utilization : float;
}

let params =
  (* shorter holding time so quick runs see many level shifts *)
  Mbac.Params.make ~n:100.0 ~mu:1.0 ~sigma:0.3 ~t_h:400.0 ~t_c:1.0 ~p_q:1e-2

(* Periodic +-10% mean shifts: factor alternates 1.0 / 1.1 every
   [period] time units.  (Level shifts force transient overload on any
   non-preemptive AC while departures shed the excess; keeping the step
   modest keeps that unavoidable component small relative to the
   estimator-tracking differences under test.) *)
let schedule ~period ~horizon =
  let n = int_of_float (horizon /. period) + 2 in
  Mbac_traffic.Modulated.schedule
    (Array.init n (fun i ->
         (float_of_int i *. period, if i mod 2 = 0 then 1.0 else 1.1)))

let compute ~profile =
  let p = params in
  let capacity = Mbac.Params.capacity p in
  let t_h_tilde = Mbac.Params.t_h_tilde p in
  let cfg t_m = Common.sim_config ~profile ~p ~t_m in
  let horizon = 1e7 in
  let sched = schedule ~period:(10.0 *. t_h_tilde) ~horizon in
  let rcbr = Common.rcbr_factory ~p in
  let make_source rng ~start =
    Mbac_traffic.Modulated.create ~start sched (rcbr rng ~start)
  in
  Common.par_map
    (fun t_m ->
      let controller =
        Mbac.Controller.with_memory ~capacity ~p_ce:p.Mbac.Params.p_q ~t_m
      in
      let r =
        Mbac_sim.Continuous_load.run
          (Common.rng_for (Printf.sprintf "nonstat-%g" t_m))
          (cfg t_m) ~controller ~make_source
      in
      { t_m;
        p_f = r.Mbac_sim.Continuous_load.p_f;
        kind = r.Mbac_sim.Continuous_load.estimate_kind;
        utilization = r.Mbac_sim.Continuous_load.utilization })
    [ 0.0; t_h_tilde; 25.0 *. t_h_tilde ]

let run ~profile fmt =
  Common.section fmt "nonstat"
    "Non-stationary traffic: step mean shifts vs estimator memory";
  Format.fprintf fmt
    "%a; per-flow mean alternates 1.0/1.1 every 10 T~_h@." Mbac.Params.pp
    params;
  let rows = compute ~profile in
  Common.table fmt
    ~header:[ "T_m"; "p_f"; "est"; "util" ]
    ~rows:
      (List.map
         (fun r ->
           [ Common.fnum3 r.t_m; Common.fnum r.p_f;
             (match r.kind with `Direct -> "direct" | `Gaussian_fit -> "fit");
             Printf.sprintf "%.3f" r.utilization ])
         rows);
  Format.fprintf fmt
    "Expected ordering: T_m = T~_h tracks the shifts best (each level \
     shift still forces a small unavoidable transient while departures \
     shed the excess); T_m = 0 fails as always from estimation noise; a \
     window much longer than the shift period lags the level and \
     degrades — the §2/§5.3 point that memory must not exceed the \
     traffic's stationarity time-scale.@."
