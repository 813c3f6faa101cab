(* Single continuous-load simulation with a chosen controller and source:
     mbac_sim --controller robust --n 100 --t-h 1000 --t-c 1 --p-q 1e-3
     mbac_sim --controller memoryless --source onoff --max-events 2000000 *)

open Cmdliner

type source_kind = Rcbr | Onoff | Ou | Lrd

let sources = [ ("rcbr", Rcbr); ("onoff", Onoff); ("ou", Ou); ("lrd", Lrd) ]
let source_name kind = fst (List.find (fun (_, k) -> k = kind) sources)

let ( let* ) = Result.bind

(* The traffic model flags both commands take.  [t_m = None] is the
   paper's memory T~_h, worked out per link. *)
type model = {
  n : float;
  mu : float;
  sigma_ratio : float;
  t_h : float;
  t_c : float;
  p_q : float;
  t_m : float option;
}

let positive x = Float.is_finite x && x > 0.0
let positive_opt = Option.fold ~none:true ~some:positive

let first_error checks =
  match List.find_opt (fun (ok, _) -> not ok) checks with
  | Some (_, msg) -> Error msg
  | None -> Ok ()

(* The model flags, checked before anything is built from them:
   [Params.make] and the estimators would raise on most bad values, and
   an infinite time-scale never finishes. *)
let model_checks m =
  [ (positive m.n, "-n must be finite and > 0");
    (positive m.mu, "--mu must be finite and > 0");
    ( Float.is_finite m.sigma_ratio && m.sigma_ratio >= 0.0,
      "--sigma-ratio must be finite and >= 0" );
    (positive m.t_h, "--t-h must be finite and > 0");
    (positive m.t_c, "--t-c must be finite and > 0");
    (m.p_q > 0.0 && m.p_q <= 0.5, "--p-q must be in (0, 0.5]");
    (positive_opt m.t_m, "--t-m must be finite and > 0") ]

(* The system of [n] flows of the model (n = C / mu for a link of
   capacity C). *)
let params m ~n =
  Mbac.Params.make ~n ~mu:m.mu ~sigma:(m.sigma_ratio *. m.mu) ~t_h:m.t_h
    ~t_c:m.t_c ~p_q:m.p_q

let memory m p = Option.value m.t_m ~default:(Mbac.Params.t_h_tilde p)

(* Batches of 2 max(T~_h, T_m, T_c), the paper's sampling period, after a
   warm-up of 5 batches: (warm-up, batch length). *)
let batching m p =
  let batch =
    2.0 *. Float.max (Mbac.Params.t_h_tilde p) (Float.max (memory m p) m.t_c)
  in
  (5.0 *. batch, batch)

(* The --controller table: each scheme, built for a link of [capacity]
   whose flows follow the system [p], with estimator memory [t_m]. *)
let schemes =
  let open Mbac in
  let peak p = p.Params.mu +. (3.0 *. p.Params.sigma) in
  [ ("perfect", fun ~p ~capacity:_ ~t_m:_ -> Controller.perfect p);
    ( "memoryless",
      fun ~p ~capacity ~t_m:_ ->
        Controller.memoryless ~capacity ~p_ce:p.Params.p_q );
    ( "memory",
      fun ~p ~capacity ~t_m ->
        Controller.with_memory ~capacity ~p_ce:p.Params.p_q ~t_m );
    ("robust", fun ~p ~capacity:_ ~t_m:_ -> Controller.robust p);
    ( "measured-sum",
      fun ~p ~capacity ~t_m:_ ->
        Controller.measured_sum ~capacity ~utilization_target:0.9
          ~window:(Params.t_h_tilde p) ~peak:(peak p) );
    ( "hoeffding",
      fun ~p ~capacity ~t_m ->
        Controller.hoeffding ~capacity ~p_ce:p.Params.p_q ~peak:(peak p)
          (Estimator.ewma ~t_m) );
    ( "gkk",
      fun ~p ~capacity ~t_m:_ ->
        Controller.gkk ~capacity ~p_ce:p.Params.p_q ~prior_mu:p.Params.mu
          ~prior_var:(p.Params.sigma *. p.Params.sigma) ~prior_weight:0.5 );
    ( "peak-rate",
      fun ~p ~capacity ~t_m:_ -> Controller.peak_rate ~capacity ~peak:(peak p)
    ) ]

let scheme name =
  Option.to_result (List.assoc_opt name schemes)
    ~none:(Printf.sprintf "unknown controller %S" name)

(* The --source factory for flows of the system [p].  An lrd flow plays
   one synthetic video trace, built here from [seed] and shared by every
   flow: building it before any domain fans out avoids a race. *)
let source_factory kind p ~seed =
  let { Mbac.Params.mu; sigma; t_c; _ } = p in
  match kind with
  | Rcbr ->
      let rcbr = { Mbac_traffic.Rcbr.mu; sigma; t_c } in
      fun rng ~start -> Mbac_traffic.Rcbr.create rng rcbr ~start
  | Onoff ->
      (* match mean and variance: peak p_on = mu, peak^2 p(1-p) = sigma^2 *)
      let p_on = 1.0 /. (1.0 +. ((sigma /. mu) ** 2.0)) in
      let onoff =
        { Mbac_traffic.Onoff.peak = mu /. p_on; mean_on = t_c *. (1.0 -. p_on);
          mean_off = t_c *. p_on }
      in
      fun rng ~start -> Mbac_traffic.Onoff.create rng onoff ~start
  | Ou ->
      let ou = { Mbac_traffic.Ou_source.mu; sigma; t_c; dt = t_c /. 10.0 } in
      fun rng ~start -> Mbac_traffic.Ou_source.create rng ou ~start
  | Lrd ->
      let trng = Mbac_stats.Rng.create ~seed:(seed + 1) in
      let params = Mbac_traffic.Mpeg_synth.default_params ~mean_rate:mu in
      let raw = Mbac_traffic.Mpeg_synth.generate trng params ~frames:65536 in
      let trace =
        Mbac_traffic.Renegotiate.segments ~segment_len:24 ~percentile:0.95 raw
      in
      fun rng ~start -> Mbac_traffic.Trace_source.create rng trace ~start

let run_sim model controller_name source_kind max_events seed reps jobs
    rare_event rare_levels rare_base rare_trials rare_pilot tele =
  let* () =
    first_error
      (model_checks model
      @ [ (rare_levels >= 1, "--rare-levels must be >= 1");
          (rare_base > 0.0 && rare_base < 1.0, "--rare-base must be in (0, 1)");
          (rare_trials >= 2, "--rare-trials must be >= 2");
          ( positive_opt rare_pilot,
            "--rare-pilot-time must be finite and > 0" ) ])
  in
  let p = params model ~n:model.n in
  let capacity = Mbac.Params.capacity p in
  let t_m = memory model p in
  let* build = scheme controller_name in
  let* () =
    first_error
      [ (reps >= 1, "--reps must be >= 1"); (jobs >= 1, "--jobs must be >= 1") ]
  in
  (* A controller carries mutable estimator state, so every replication
     needs a fresh one. *)
  let make_controller () = build ~p ~capacity ~t_m in
  Mbac_telemetry_cli.Flags.install tele;
  let make_source = source_factory source_kind p ~seed in
  let warmup, batch = batching model p in
  let cfg =
    { (Mbac_sim.Continuous_load.default_config ~capacity
         ~holding_time_mean:model.t_h ~target_p_q:model.p_q)
      with
      Mbac_sim.Continuous_load.warmup;
      batch_length = batch;
      max_events }
  in
  Format.printf "system: %a@." Mbac.Params.pp p;
  if rare_event then begin
    (* Multilevel-splitting estimate of the deep tail; replications
       do not apply (the engine parallelizes its own clone trials). *)
    let pilot_time =
      match rare_pilot with Some v -> v | None -> 200.0 *. batch
    in
    let scfg =
      { (Mbac_sim.Splitting.default_config ~pilot_time) with
        Mbac_sim.Splitting.levels = rare_levels;
        base_level = rare_base;
        trials_per_level = rare_trials }
    in
    Format.printf
      "controller: %s, source: %s, rare-event splitting: levels=%d \
       base=%g trials=%d pilot=%g@."
      (Mbac.Controller.name (make_controller ()))
      (source_name source_kind) rare_levels rare_base rare_trials pilot_time;
    let res =
      Mbac_sim.Splitting.run ~jobs ~seed scfg cfg
        ~controller:(make_controller ()) ~make_source
    in
    Format.printf "%a@." Mbac_sim.Splitting.pp_result res
  end
  else begin
    Format.printf "controller: %s, source: %s, replications: %d@."
      (Mbac.Controller.name (make_controller ()))
      (source_name source_kind) reps;
    (* Replication streams are derived from (seed, rep index) up
       front, so the results do not depend on --jobs; a single
       replication keeps the historical [Rng.create ~seed] stream. *)
    let rng_for_rep i =
      if reps = 1 then Mbac_stats.Rng.create ~seed
      else Mbac_stats.Rng.derive ~seed ~tag:(Printf.sprintf "rep-%d" i)
    in
    let tasks =
      List.init reps (fun i () ->
          Mbac_sim.Continuous_load.run (rng_for_rep i) cfg
            ~controller:(make_controller ()) ~make_source)
    in
    let results = Mbac_sim.Parallel.run_tasks ~jobs tasks in
    List.iteri
      (fun i result ->
        if reps > 1 then Format.printf "--- replication %d ---@." i;
        Format.printf "%a@." Mbac_sim.Continuous_load.pp_result result)
      results;
    if reps > 1 then begin
      (* Student-t interval over the replication means: one batch per
         replication (replications are independent by construction, so
         batch means are exactly i.i.d. here). *)
      let batch_ci field =
        let bm = Mbac_stats.Batch_means.create ~batch_length:1.0 in
        List.iter
          (fun r -> Mbac_stats.Batch_means.add bm ~weight:1.0 (field r))
          results;
        ( Mbac_stats.Batch_means.mean bm,
          Mbac_stats.Batch_means.half_width bm ~confidence:0.95 )
      in
      let p_f_mean, p_f_hw =
        batch_ci (fun r -> r.Mbac_sim.Continuous_load.p_f)
      in
      let util_mean, util_hw =
        batch_ci (fun r -> r.Mbac_sim.Continuous_load.utilization)
      in
      Format.printf
        "across %d replications (batch means, 95%% CI): p_f = %.4g +- \
         %.2g, utilization = %.4g +- %.2g@."
        reps p_f_mean p_f_hw util_mean util_hw
    end
  end;
  Format.printf "theory (eqn 37 at this T_m): %.4g@."
    (Mbac.Memory_formula.overflow_cached ~p ~t_m
       ~alpha_ce:(Mbac.Params.alpha_q p));
  Mbac_telemetry_cli.Flags.finish tele;
  Ok ()

let source_conv =
  let parse s =
    match List.assoc_opt s sources with
    | Some kind -> Ok kind
    | None -> Error (`Msg (Printf.sprintf "unknown source %S" s))
  in
  let print fmt k = Format.pp_print_string fmt (source_name k) in
  Arg.conv (parse, print)

let names table = String.concat " | " (List.map fst table)

let controller_opt =
  Arg.(value & opt string "robust" & info [ "controller"; "c" ] ~docv:"NAME"
         ~doc:(names schemes))

let source_opt =
  Arg.(value & opt source_conv Rcbr & info [ "source"; "s" ] ~docv:"KIND"
         ~doc:(names sources))

let fopt name default doc =
  Arg.(value & opt float default & info [ name ] ~docv:"X" ~doc)

let model_term ~n_doc =
  let model n mu sigma_ratio t_h t_c p_q t_m =
    { n; mu; sigma_ratio; t_h; t_c; p_q; t_m }
  in
  Term.(
    const model
    $ fopt "n" 100.0 n_doc
    $ fopt "mu" 1.0 "Per-flow mean rate."
    $ fopt "sigma-ratio" 0.3 "sigma / mu."
    $ fopt "t-h" 1000.0 "Mean flow holding time."
    $ fopt "t-c" 1.0 "Traffic correlation time-scale."
    $ fopt "p-q" 1e-3 "Target overflow probability."
    $ Arg.(value & opt (some float) None
           & info [ "t-m" ] ~docv:"X"
               ~doc:"Estimator memory (default: T~_h)."))

let seed_opt =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"RNG seed.")

let cmd =
  let term =
    Term.(
      const run_sim
      $ model_term ~n_doc:"Normalized capacity (system size)."
      $ controller_opt $ source_opt
      $ Arg.(value & opt int 8_000_000
             & info [ "max-events" ] ~docv:"N" ~doc:"Event cap.")
      $ seed_opt
      $ Arg.(value & opt int 1
             & info [ "reps" ] ~docv:"N"
                 ~doc:"Independent replications; each gets its own stream \
                       derived from --seed and the replication index.")
      $ Arg.(value & opt int (Mbac_sim.Parallel.default_jobs ())
             & info [ "jobs"; "j" ] ~docv:"N"
                 ~doc:"Worker domains for the replications (default: the \
                       core count, at most 8; clamped to the same cap, \
                       overridable via \\$MBAC_DOMAIN_CAP).  Output is \
                       identical for every value.")
      $ Arg.(value & flag
             & info [ "rare-event" ]
                 ~doc:"Estimate the deep-tail overflow probability with \
                       multilevel importance splitting instead of a direct \
                       run.  Ignores --reps; --jobs parallelizes clone \
                       trials with bit-identical output.")
      $ Arg.(value & opt int 6
             & info [ "rare-levels" ] ~docv:"K"
                 ~doc:"Splitting thresholds between base and capacity.")
      $ fopt "rare-base" 0.25
          "Excursion base as a fraction of the mean-to-capacity gap."
      $ Arg.(value & opt int 2048
             & info [ "rare-trials" ] ~docv:"N"
                 ~doc:"Clone trials per splitting level.")
      $ Arg.(value & opt (some float) None
             & info [ "rare-pilot-time" ] ~docv:"T"
                 ~doc:"Pilot collection window in simulated time (default: \
                       200 batch lengths).")
      $ Mbac_telemetry_cli.Flags.term)
  in
  Cmd.v
    (Cmd.info "mbac_sim"
       ~doc:"Simulate one admission-controlled bufferless link under \
             continuous load")
    Term.(term_result' ~usage:true term)

(* ---- mbac_sim network: routed multi-link topology on sharded wheels ---- *)

let run_network topo_spec topo_file shards model controller_name source_kind
    setup_delay offered max_events seed jobs stats tele =
  let* () =
    first_error
      (model_checks model
      @ [ (positive offered, "--offered must be finite and > 0");
          ( positive_opt setup_delay,
            "--setup-delay must be finite and > 0" ) ])
  in
  let capacity = model.n *. model.mu in
  (* per-link offered load [offered] = rho: arrivals at rho * C / (mu * t_h) *)
  let rate = offered *. model.n /. model.t_h in
  let* topology =
    match topo_file with
    | Some path -> (
        match In_channel.with_open_text path In_channel.input_all with
        | text -> Mbac_net.Topology.parse text
        | exception Sys_error e -> Error e)
    | None -> Mbac_net.Topology.of_spec ~rate ~capacity topo_spec
  in
  let max_shards = min (Mbac_net.Topology.num_links topology) 256 in
  let* () =
    first_error
      [ (shards >= 1, "--shards must be >= 1");
        ( shards <= max_shards,
          Printf.sprintf "--shards must be <= min(links, 256) = %d here"
            max_shards );
        (jobs >= 1, "--jobs must be >= 1") ]
  in
  let* build = scheme controller_name in
  (* Links can have different capacities (core-edge), so controllers are
     built per link from its capacity, scaling the paper's system size
     as n_l = C_l / mu. *)
  let build_controller ~capacity =
    let p_l = params model ~n:(capacity /. model.mu) in
    build ~p:p_l ~capacity ~t_m:(memory model p_l)
  in
  let probe = build_controller ~capacity in
  Mbac_telemetry_cli.Flags.install tele;
  let p_edge = params model ~n:model.n in
  let make_source = source_factory source_kind p_edge ~seed in
  let warmup, batch = batching model p_edge in
  let cfg =
    { (Mbac_net.Network.default_config ~topology
         ~holding_time_mean:model.t_h ~target_p_q:model.p_q)
      with
      Mbac_net.Network.shards;
      setup_delay =
        (match setup_delay with Some v -> v | None -> model.t_h /. 100.0);
      warmup;
      batch_length = batch;
      max_events }
  in
  Format.printf
    "network: %d links, %d routes, %d shards, controller %s, source %s@."
    (Mbac_net.Topology.num_links topology)
    (Mbac_net.Topology.num_routes topology)
    shards
    (Mbac.Controller.name probe)
    (source_name source_kind);
  let res =
    Mbac_net.Network.run ~jobs ~seed cfg
      ~make_controller:(fun ~link:_ ~capacity -> build_controller ~capacity)
      ~make_source
  in
  Format.printf "%a" Mbac_net.Network.pp_result res;
  if stats then
    Format.printf "windows %d messages %d@." res.Mbac_net.Network.windows
      res.Mbac_net.Network.messages;
  Mbac_telemetry_cli.Flags.finish tele;
  Ok ()

let network_cmd =
  let term =
    Term.(
      const run_network
      $ Arg.(value & opt string "line:4"
             & info [ "topology" ] ~docv:"SPEC"
                 ~doc:"Topology generator: line:N | star:N | core-edge:ExC.")
      $ Arg.(value & opt (some file) None
             & info [ "topology-file" ] ~docv:"FILE"
                 ~doc:"Explicit topology: `link CAPACITY' and `route RATE \
                       LINK...' lines; overrides --topology.")
      $ Arg.(value & opt int 1
             & info [ "shards" ] ~docv:"N"
                 ~doc:"Link partitions, each with its own event wheel \
                       (1 .. min(links, 256)).  Each worker domain \
                       drains a contiguous range of shards: a message \
                       between shards of one domain is pushed into its \
                       wheel when sent, and only messages between \
                       domains wait for the window barrier's exchange.  \
                       Output is identical for every value.")
      $ model_term ~n_doc:"Normalized edge-link capacity (system size)."
      $ controller_opt $ source_opt
      $ Arg.(value & opt (some float) None
             & info [ "setup-delay" ] ~docv:"X"
                 ~doc:"Per-hop setup/notification delay, also the \
                       cross-shard lookahead (default: t-h / 100).")
      $ fopt "offered" 0.9
          "Offered load per link as a fraction of its capacity."
      $ Arg.(value & opt int 2_000_000
             & info [ "max-events" ] ~docv:"N" ~doc:"Event cap.")
      $ seed_opt
      $ Arg.(value & opt int (Mbac_sim.Parallel.default_jobs ())
             & info [ "jobs"; "j" ] ~docv:"N"
                 ~doc:"Worker domains (default: the core count, at most 8; \
                       clamped via \\$MBAC_DOMAIN_CAP).  Output is \
                       identical for every value.")
      $ Arg.(value & flag
             & info [ "stats" ]
                 ~doc:"Also print window and cross-shard message counts \
                       (these legitimately depend on --shards, but not \
                       on --jobs).")
      $ Mbac_telemetry_cli.Flags.term)
  in
  Cmd.v
    (Cmd.info "mbac_sim network"
       ~doc:"Simulate admission control across a routed multi-link network")
    Term.(term_result' ~usage:true term)

let () =
  let argv = Sys.argv in
  if Array.length argv > 1 && argv.(1) = "network" then
    (* manual dispatch: the historical no-subcommand CLI (and its usage
       text, pinned by cram goldens) stays exactly as it was *)
    let argv =
      Array.append [| argv.(0) |] (Array.sub argv 2 (Array.length argv - 2))
    in
    exit (Cmd.eval network_cmd ~argv)
  else exit (Cmd.eval cmd)
