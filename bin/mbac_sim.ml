(* Single continuous-load simulation with a chosen controller and source:
     mbac_sim --controller robust --n 100 --t-h 1000 --t-c 1 --p-q 1e-3
     mbac_sim --controller memoryless --source onoff --max-events 2000000 *)

open Cmdliner

type source_kind = Rcbr | Onoff | Ou | Lrd

let ( let* ) = Result.bind

(* The model and splitting flags, checked before anything is built from
   them: [Params.make] and [Splitting.run] would raise on most bad
   values, and an infinite time-scale never finishes. *)
let check_flags ~n ~mu ~sigma_ratio ~t_h ~t_c ~p_q ~t_m ~rare_levels
    ~rare_base ~rare_trials ~rare_pilot =
  let positive x = Float.is_finite x && x > 0.0 in
  let positive_opt = Option.fold ~none:true ~some:positive in
  let checks =
    [ (positive n, "-n must be finite and > 0");
      (positive mu, "--mu must be finite and > 0");
      ( Float.is_finite sigma_ratio && sigma_ratio >= 0.0,
        "--sigma-ratio must be finite and >= 0" );
      (positive t_h, "--t-h must be finite and > 0");
      (positive t_c, "--t-c must be finite and > 0");
      (p_q > 0.0 && p_q <= 0.5, "--p-q must be in (0, 0.5]");
      (positive_opt t_m, "--t-m must be finite and > 0");
      (rare_levels >= 1, "--rare-levels must be >= 1");
      (rare_base > 0.0 && rare_base < 1.0, "--rare-base must be in (0, 1)");
      (rare_trials >= 2, "--rare-trials must be >= 2");
      (positive_opt rare_pilot, "--rare-pilot-time must be finite and > 0") ]
  in
  match List.find_opt (fun (ok, _) -> not ok) checks with
  | Some (_, msg) -> Error msg
  | None -> Ok ()

let run_sim controller_name source_kind n mu sigma_ratio t_h t_c p_q t_m
    max_events seed reps jobs rare_event rare_levels rare_base rare_trials
    rare_pilot tele =
  let* () =
    check_flags ~n ~mu ~sigma_ratio ~t_h ~t_c ~p_q ~t_m ~rare_levels
      ~rare_base ~rare_trials ~rare_pilot
  in
  let sigma = sigma_ratio *. mu in
  let p = Mbac.Params.make ~n ~mu ~sigma ~t_h ~t_c ~p_q in
  let capacity = Mbac.Params.capacity p in
  let t_h_tilde = Mbac.Params.t_h_tilde p in
  let t_m = match t_m with Some v -> v | None -> t_h_tilde in
  let peak = mu +. (3.0 *. sigma) in
  (* A controller carries mutable estimator state, so every replication
     needs a fresh one: validate the name once, then build per task. *)
  let make_controller =
    match controller_name with
    | "perfect" -> Ok (fun () -> Mbac.Controller.perfect p)
    | "memoryless" ->
        Ok (fun () -> Mbac.Controller.memoryless ~capacity ~p_ce:p_q)
    | "memory" ->
        Ok (fun () -> Mbac.Controller.with_memory ~capacity ~p_ce:p_q ~t_m)
    | "robust" -> Ok (fun () -> Mbac.Controller.robust p)
    | "measured-sum" ->
        Ok
          (fun () ->
            Mbac.Controller.measured_sum ~capacity ~utilization_target:0.9
              ~window:t_h_tilde ~peak)
    | "hoeffding" ->
        Ok
          (fun () ->
            Mbac.Controller.hoeffding ~capacity ~p_ce:p_q ~peak
              (Mbac.Estimator.ewma ~t_m))
    | "gkk" ->
        Ok
          (fun () ->
            Mbac.Controller.gkk ~capacity ~p_ce:p_q ~prior_mu:mu
              ~prior_var:(sigma *. sigma) ~prior_weight:0.5)
    | "peak-rate" -> Ok (fun () -> Mbac.Controller.peak_rate ~capacity ~peak)
    | other -> Error (Printf.sprintf "unknown controller %S" other)
  in
  match make_controller with
  | Error _ as e -> e
  | Ok _ when reps < 1 -> Error "--reps must be >= 1"
  | Ok _ when jobs < 1 -> Error "--jobs must be >= 1"
  | Ok make_controller ->
      Mbac_telemetry_cli.Flags.install tele;
      let lrd_trace =
        lazy
          (let trng = Mbac_stats.Rng.create ~seed:(seed + 1) in
           let params = Mbac_traffic.Mpeg_synth.default_params ~mean_rate:mu in
           let raw = Mbac_traffic.Mpeg_synth.generate trng params ~frames:65536 in
           Mbac_traffic.Renegotiate.segments ~segment_len:24 ~percentile:0.95 raw)
      in
      (* Forcing a lazy from several domains races; materialize the
         shared trace before fanning out. *)
      if source_kind = Lrd then ignore (Lazy.force lrd_trace);
      let make_source rng ~start =
        match source_kind with
        | Rcbr ->
            Mbac_traffic.Rcbr.create rng { Mbac_traffic.Rcbr.mu; sigma; t_c }
              ~start
        | Onoff ->
            (* match mean and variance: peak p_on = mu, peak^2 p(1-p) = sigma^2 *)
            let p_on = 1.0 /. (1.0 +. ((sigma /. mu) ** 2.0)) in
            let peak = mu /. p_on in
            Mbac_traffic.Onoff.create rng
              { Mbac_traffic.Onoff.peak; mean_on = t_c *. (1.0 -. p_on);
                mean_off = t_c *. p_on }
              ~start
        | Ou ->
            Mbac_traffic.Ou_source.create rng
              { Mbac_traffic.Ou_source.mu; sigma; t_c; dt = t_c /. 10.0 }
              ~start
        | Lrd ->
            (* one shared trace per process; cheap memoization *)
            let trace = Lazy.force lrd_trace in
            Mbac_traffic.Trace_source.create rng trace ~start
      in
      let batch = 2.0 *. Float.max t_h_tilde (Float.max t_m t_c) in
      let cfg =
        { (Mbac_sim.Continuous_load.default_config ~capacity
             ~holding_time_mean:t_h ~target_p_q:p_q)
          with
          Mbac_sim.Continuous_load.warmup = 5.0 *. batch;
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
          (match source_kind with
          | Rcbr -> "rcbr" | Onoff -> "onoff" | Ou -> "ou" | Lrd -> "lrd")
          rare_levels rare_base rare_trials pilot_time;
        let res =
          Mbac_sim.Splitting.run ~jobs ~seed scfg cfg
            ~controller:(make_controller ()) ~make_source
        in
        Format.printf "%a@." Mbac_sim.Splitting.pp_result res;
        Format.printf "theory (eqn 37 at this T_m): %.4g@."
          (Mbac.Memory_formula.overflow_cached ~p ~t_m
             ~alpha_ce:(Mbac.Params.alpha_q p));
        Mbac_telemetry_cli.Flags.finish tele;
        Ok ()
      end
      else begin
      Format.printf "controller: %s, source: %s, replications: %d@."
        (Mbac.Controller.name (make_controller ()))
        (match source_kind with
        | Rcbr -> "rcbr" | Onoff -> "onoff" | Ou -> "ou" | Lrd -> "lrd")
        reps;
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
      end;
      Format.printf "theory (eqn 37 at this T_m): %.4g@."
        (Mbac.Memory_formula.overflow_cached ~p ~t_m
           ~alpha_ce:(Mbac.Params.alpha_q p));
      Mbac_telemetry_cli.Flags.finish tele;
      Ok ()
      end

let source_conv =
  let parse = function
    | "rcbr" -> Ok Rcbr
    | "onoff" -> Ok Onoff
    | "ou" -> Ok Ou
    | "lrd" -> Ok Lrd
    | s -> Error (`Msg (Printf.sprintf "unknown source %S" s))
  in
  let print fmt k =
    Format.pp_print_string fmt
      (match k with Rcbr -> "rcbr" | Onoff -> "onoff" | Ou -> "ou" | Lrd -> "lrd")
  in
  Arg.conv (parse, print)

let controller_opt =
  Arg.(value & opt string "robust" & info [ "controller"; "c" ] ~docv:"NAME"
         ~doc:"perfect | memoryless | memory | robust | measured-sum | \
               hoeffding | gkk | peak-rate")

let source_opt =
  Arg.(value & opt source_conv Rcbr & info [ "source"; "s" ] ~docv:"KIND"
         ~doc:"rcbr | onoff | ou | lrd")

let fopt name default doc =
  Arg.(value & opt float default & info [ name ] ~docv:"X" ~doc)

let cmd =
  let term =
    Term.(
      const run_sim
      $ controller_opt $ source_opt
      $ fopt "n" 100.0 "Normalized capacity (system size)."
      $ fopt "mu" 1.0 "Per-flow mean rate."
      $ fopt "sigma-ratio" 0.3 "sigma / mu."
      $ fopt "t-h" 1000.0 "Mean flow holding time."
      $ fopt "t-c" 1.0 "Traffic correlation time-scale."
      $ fopt "p-q" 1e-3 "Target overflow probability."
      $ Arg.(value & opt (some float) None
             & info [ "t-m" ] ~docv:"X"
                 ~doc:"Estimator memory (default: T~_h).")
      $ Arg.(value & opt int 8_000_000
             & info [ "max-events" ] ~docv:"N" ~doc:"Event cap.")
      $ Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"RNG seed.")
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

let run_network topo_spec topo_file shards controller_name source_kind n mu
    sigma_ratio t_h t_c p_q t_m setup_delay offered max_events seed jobs
    stats tele =
  let sigma = sigma_ratio *. mu in
  let capacity = n *. mu in
  (* per-link offered load [offered] = rho: arrivals at rho * C / (mu * t_h) *)
  let rate = offered *. n /. t_h in
  let topo =
    match topo_file with
    | Some path -> (
        match In_channel.with_open_text path In_channel.input_all with
        | text -> Mbac_net.Topology.parse text
        | exception Sys_error e -> Error e)
    | None -> Mbac_net.Topology.of_spec ~rate ~capacity topo_spec
  in
  (* Links can have different capacities (core-edge), so controllers are
     built per link from its capacity, scaling the paper's system size
     as n_l = C_l / mu. *)
  let build_controller ~capacity =
    let n_l = capacity /. mu in
    let p_l = Mbac.Params.make ~n:n_l ~mu ~sigma ~t_h ~t_c ~p_q in
    let t_h_tilde = Mbac.Params.t_h_tilde p_l in
    let t_m = match t_m with Some v -> v | None -> t_h_tilde in
    let peak = mu +. (3.0 *. sigma) in
    match controller_name with
    | "perfect" -> Ok (Mbac.Controller.perfect p_l)
    | "memoryless" -> Ok (Mbac.Controller.memoryless ~capacity ~p_ce:p_q)
    | "memory" -> Ok (Mbac.Controller.with_memory ~capacity ~p_ce:p_q ~t_m)
    | "robust" -> Ok (Mbac.Controller.robust p_l)
    | "measured-sum" ->
        Ok
          (Mbac.Controller.measured_sum ~capacity ~utilization_target:0.9
             ~window:t_h_tilde ~peak)
    | "hoeffding" ->
        Ok
          (Mbac.Controller.hoeffding ~capacity ~p_ce:p_q ~peak
             (Mbac.Estimator.ewma ~t_m))
    | "gkk" ->
        Ok
          (Mbac.Controller.gkk ~capacity ~p_ce:p_q ~prior_mu:mu
             ~prior_var:(sigma *. sigma) ~prior_weight:0.5)
    | "peak-rate" -> Ok (Mbac.Controller.peak_rate ~capacity ~peak)
    | other -> Error (Printf.sprintf "unknown controller %S" other)
  in
  let positive x = Float.is_finite x && x > 0.0 in
  match topo with
  | _ when not (positive t_h) -> Error "--t-h must be finite and > 0"
  | _ when not (positive offered) -> Error "--offered must be finite and > 0"
  | _ when not (Option.fold ~none:true ~some:positive setup_delay) ->
      Error "--setup-delay must be finite and > 0"
  | Error e -> Error e
  | Ok _ when shards < 1 -> Error "--shards must be >= 1"
  | Ok t when shards > min (Mbac_net.Topology.num_links t) 256 ->
      Error
        (Printf.sprintf "--shards must be <= min(links, 256) = %d here"
           (min (Mbac_net.Topology.num_links t) 256))
  | Ok _ when jobs < 1 -> Error "--jobs must be >= 1"
  | Ok topology -> (
      match build_controller ~capacity with
      | Error _ as e -> e
      | Ok probe ->
          Mbac_telemetry_cli.Flags.install tele;
          let lrd_trace =
            lazy
              (let trng = Mbac_stats.Rng.create ~seed:(seed + 1) in
               let params =
                 Mbac_traffic.Mpeg_synth.default_params ~mean_rate:mu
               in
               let raw =
                 Mbac_traffic.Mpeg_synth.generate trng params ~frames:65536
               in
               Mbac_traffic.Renegotiate.segments ~segment_len:24
                 ~percentile:0.95 raw)
          in
          (* materialize before the shard domains fan out (same reason
             as the single-link command: forcing a lazy races) *)
          if source_kind = Lrd then ignore (Lazy.force lrd_trace);
          let make_source rng ~start =
            match source_kind with
            | Rcbr ->
                Mbac_traffic.Rcbr.create rng
                  { Mbac_traffic.Rcbr.mu; sigma; t_c } ~start
            | Onoff ->
                let p_on = 1.0 /. (1.0 +. ((sigma /. mu) ** 2.0)) in
                let peak = mu /. p_on in
                Mbac_traffic.Onoff.create rng
                  { Mbac_traffic.Onoff.peak; mean_on = t_c *. (1.0 -. p_on);
                    mean_off = t_c *. p_on }
                  ~start
            | Ou ->
                Mbac_traffic.Ou_source.create rng
                  { Mbac_traffic.Ou_source.mu; sigma; t_c; dt = t_c /. 10.0 }
                  ~start
            | Lrd ->
                Mbac_traffic.Trace_source.create rng (Lazy.force lrd_trace)
                  ~start
          in
          let p_edge = Mbac.Params.make ~n ~mu ~sigma ~t_h ~t_c ~p_q in
          let t_h_tilde = Mbac.Params.t_h_tilde p_edge in
          let t_m_r = match t_m with Some v -> v | None -> t_h_tilde in
          let batch = 2.0 *. Float.max t_h_tilde (Float.max t_m_r t_c) in
          let cfg =
            { (Mbac_net.Network.default_config ~topology
                 ~holding_time_mean:t_h ~target_p_q:p_q)
              with
              Mbac_net.Network.shards;
              setup_delay =
                (match setup_delay with
                | Some v -> v
                | None -> t_h /. 100.0);
              warmup = 5.0 *. batch;
              batch_length = batch;
              max_events }
          in
          Format.printf
            "network: %d links, %d routes, %d shards, controller %s, \
             source %s@."
            (Mbac_net.Topology.num_links topology)
            (Mbac_net.Topology.num_routes topology)
            shards
            (Mbac.Controller.name probe)
            (match source_kind with
            | Rcbr -> "rcbr" | Onoff -> "onoff" | Ou -> "ou" | Lrd -> "lrd");
          let res =
            Mbac_net.Network.run ~jobs ~seed cfg
              ~make_controller:(fun ~link:_ ~capacity ->
                match build_controller ~capacity with
                | Ok c -> c
                | Error e -> invalid_arg e)
              ~make_source
          in
          Format.printf "%a" Mbac_net.Network.pp_result res;
          if stats then
            Format.printf "windows %d messages %d@."
              res.Mbac_net.Network.windows res.Mbac_net.Network.messages;
          Mbac_telemetry_cli.Flags.finish tele;
          Ok ())

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
                       (1 .. min(links, 256)).  Output is identical for \
                       every value.")
      $ controller_opt $ source_opt
      $ fopt "n" 100.0 "Normalized edge-link capacity (system size)."
      $ fopt "mu" 1.0 "Per-flow mean rate."
      $ fopt "sigma-ratio" 0.3 "sigma / mu."
      $ fopt "t-h" 1000.0 "Mean flow holding time."
      $ fopt "t-c" 1.0 "Traffic correlation time-scale."
      $ fopt "p-q" 1e-3 "Target overflow probability."
      $ Arg.(value & opt (some float) None
             & info [ "t-m" ] ~docv:"X"
                 ~doc:"Estimator memory (default: T~_h).")
      $ Arg.(value & opt (some float) None
             & info [ "setup-delay" ] ~docv:"X"
                 ~doc:"Per-hop setup/notification delay, also the \
                       cross-shard lookahead (default: t-h / 100).")
      $ fopt "offered" 0.9
          "Offered load per link as a fraction of its capacity."
      $ Arg.(value & opt int 2_000_000
             & info [ "max-events" ] ~docv:"N" ~doc:"Event cap.")
      $ Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"RNG seed.")
      $ Arg.(value & opt int (Mbac_sim.Parallel.default_jobs ())
             & info [ "jobs"; "j" ] ~docv:"N"
                 ~doc:"Worker domains (default: the core count, at most 8; \
                       clamped via \\$MBAC_DOMAIN_CAP).  Output is \
                       identical for every value.")
      $ Arg.(value & flag
             & info [ "stats" ]
                 ~doc:"Also print window and cross-shard message counts \
                       (these legitimately depend on --shards).")
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
