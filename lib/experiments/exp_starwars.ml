(** Figures 11–12: MBAC on long-range-dependent video traffic.

    The paper drives these experiments with a piecewise-CBR version of
    the MPEG-1 Starwars trace; we use the synthetic LRD substitute
    ({!Mbac_traffic.Mpeg_synth}, see DESIGN.md §3) passed through the
    same RCBR renegotiation.  Fig 11: memoryless estimation misses the
    target by 1–2 orders of magnitude as T~_h grows.  Fig 12: with
    T_m = T~_h the MBAC is robust despite the long-range dependence. *)

type row = {
  t_h : float;
  inv_t_h_tilde : float;
  t_m : float;
  sim : float;
  sim_kind : [ `Direct | `Gaussian_fit ];
  utilization : float;
}

let n = 100.0
let p_ce = 1e-3

(* One shared renegotiated trace per run (deterministic from the seed). *)
let make_trace () =
  let rng = Common.rng_for "starwars-trace" in
  let params = Mbac_traffic.Mpeg_synth.default_params ~mean_rate:1.0 in
  let raw = Mbac_traffic.Mpeg_synth.generate rng params ~frames:131072 in
  (* 24 frames per time unit -> renegotiate once per time unit at the
     95th percentile of the upcoming segment (edge buffer absorbs the rest). *)
  Mbac_traffic.Renegotiate.segments ~segment_len:24 ~percentile:0.95 raw

let t_hs ~profile =
  match profile with
  | Common.Quick -> [ 300.0; 1000.0; 3000.0 ]
  | Common.Full -> [ 100.0; 300.0; 1000.0; 3000.0; 10000.0 ]

let compute ~profile ~memoryless =
  let trace = make_trace () in
  let trace_mu = Mbac_traffic.Trace.mean trace in
  let trace_sigma = sqrt (Mbac_traffic.Trace.variance trace) in
  let make_source rng ~start = Mbac_traffic.Trace_source.create rng trace ~start in
  let rule = Mbac.Criterion.gaussian ~p_ce in
  let capacity = n *. trace_mu in
  (* The renegotiated trace is immutable and shared read-only by every
     cell; each cell's playback offset comes from its own stream. *)
  Common.par_map
    (fun t_h ->
      (* pseudo-Params: used only for time-scales in the sim config *)
      let p =
        Mbac.Params.make ~n ~mu:trace_mu ~sigma:trace_sigma ~t_h ~t_c:1.0
          ~p_q:p_ce
      in
      let t_h_tilde = Mbac.Params.t_h_tilde p in
      let t_m = if memoryless then 0.0 else t_h_tilde in
      let controller =
        Mbac.Controller.of_rule
          ~name:(Printf.sprintf "starwars[t_m=%g]" t_m)
          ~capacity rule (Mbac.Estimator.ewma ~t_m)
      in
      let cfg = Common.sim_config ~profile ~p ~t_m in
      let tag =
        Printf.sprintf "starwars-%s-%g"
          (if memoryless then "nomem" else "mem")
          t_h
      in
      let r =
        Mbac_sim.Continuous_load.run (Common.rng_for tag) cfg ~controller
          ~make_source
      in
      { t_h; inv_t_h_tilde = 1.0 /. t_h_tilde; t_m;
        sim = r.Mbac_sim.Continuous_load.p_f;
        sim_kind = r.Mbac_sim.Continuous_load.estimate_kind;
        utilization = r.Mbac_sim.Continuous_load.utilization })
    (t_hs ~profile)

let print_rows fmt rows =
  Common.table fmt
    ~header:[ "T_h"; "1/T~_h"; "T_m"; "sim p_f"; "est"; "util" ]
    ~rows:
      (List.map
         (fun r ->
           [ Common.fnum3 r.t_h; Common.fnum r.inv_t_h_tilde;
             Common.fnum3 r.t_m; Common.fnum r.sim;
             (match r.sim_kind with `Direct -> "direct" | `Gaussian_fit -> "fit");
             Printf.sprintf "%.3f" r.utilization ])
         rows)

let run_fig11 ~profile fmt =
  Common.section fmt "fig11"
    "LRD video (Starwars-like), memoryless estimation (T_m = 0)";
  print_rows fmt (compute ~profile ~memoryless:true);
  Format.fprintf fmt
    "Paper: with memoryless estimation the target p_ce = 1e-3 is missed \
     by 1-2 orders of magnitude once T~_h is large.@."

let run_fig12 ~profile fmt =
  Common.section fmt "fig12"
    "LRD video (Starwars-like), memory window T_m = T~_h";
  print_rows fmt (compute ~profile ~memoryless:false);
  Format.fprintf fmt
    "Paper: with T_m = T~_h the MBAC is robust — the strong long-term \
     fluctuations of the LRD traffic do not degrade performance.@."
