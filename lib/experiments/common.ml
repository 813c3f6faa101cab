type profile = Quick | Full

let src = Logs.Src.create "mbac.experiments" ~doc:"Experiment sweep progress"

module Log = (val Logs.src_log src : Logs.LOG)

let profile_of_string s =
  match String.lowercase_ascii s with
  | "quick" -> Quick
  | "full" -> Full
  | other -> invalid_arg ("Common.profile_of_string: " ^ other)

let seed = ref 20260706

let rng_for tag =
  (* Collision-resistant stream derivation: the full tag is hashed
     (FNV-1a over every byte) and mixed with the root seed.  The stream
     depends only on (seed, tag) — not on how many streams were derived
     before it or on which domain asks — so sweeps are reproducible
     cell-by-cell under any parallel schedule. *)
  Mbac_stats.Rng.derive ~seed:!seed ~tag

let jobs = ref (Mbac_sim.Parallel.default_jobs ())

(* Progress goes through Logs (stderr), never stdout: the result stream
   stays byte-identical whatever the verbosity, and --quiet silences
   sweeps entirely. *)
let par_map f xs =
  let n = List.length xs in
  (* Log the width the pool will actually use — [run_tasks] clamps the
     request to the task count and the domain cap, so echoing [!jobs]
     here would overstate narrow sweeps. *)
  let width = Mbac_sim.Parallel.effective_jobs ~jobs:!jobs n in
  Log.info (fun m -> m "sweep: %d cell(s) on %d worker domain(s)" n width);
  let r =
    Mbac_telemetry.Profile.span "experiments.par_map" (fun () ->
        Mbac_sim.Parallel.map ~jobs:!jobs f xs)
  in
  Log.info (fun m -> m "sweep: %d cell(s) done" n);
  r

let sim_config ~profile ~p ~t_m =
  let t_h_tilde = Mbac.Params.t_h_tilde p in
  let batch = 2.0 *. Float.max t_h_tilde (Float.max t_m p.Mbac.Params.t_c) in
  let base =
    Mbac_sim.Continuous_load.default_config
      ~capacity:(Mbac.Params.capacity p)
      ~holding_time_mean:p.Mbac.Params.t_h
      ~target_p_q:p.Mbac.Params.p_q
  in
  let max_events =
    match profile with Quick -> 4_000_000 | Full -> 400_000_000
  in
  { base with
    Mbac_sim.Continuous_load.warmup = 5.0 *. batch;
    batch_length = batch;
    min_batches = 16;
    check_every_events = 50_000;
    max_events }

(* One parameter record for every flow the factory builds. *)
let rcbr_factory ~p =
  let rcbr =
    { Mbac_traffic.Rcbr.mu = p.Mbac.Params.mu;
      sigma = p.Mbac.Params.sigma;
      t_c = p.Mbac.Params.t_c }
  in
  fun rng ~start -> Mbac_traffic.Rcbr.create rng rcbr ~start

let ce_controller ~capacity ~t_m ~alpha_ce =
  (* Extremely small adjusted targets underflow Q, so the rule is given
     alpha directly; p_ce only labels the controller. *)
  Mbac.Controller.of_rule
    ~name:
      (Printf.sprintf "ce[t_m=%g,alpha=%.3g,p_ce=%.3g]" t_m alpha_ce
         (Mbac_stats.Gaussian.q alpha_ce))
    ~capacity (Mbac.Criterion.adjusted ~alpha_ce) (Mbac.Estimator.ewma ~t_m)

let run_mbac ~profile ~p ~t_m ~alpha_ce ~tag =
  let capacity = Mbac.Params.capacity p in
  let controller = ce_controller ~capacity ~t_m ~alpha_ce in
  let cfg = sim_config ~profile ~p ~t_m in
  (* Label this cell's time-series windows with the sweep tag (the
     controller name alone does not identify the cell). *)
  Mbac_telemetry.Timeseries.set_label tag;
  Mbac_telemetry.Profile.span "experiments.run_mbac" (fun () ->
      Mbac_sim.Continuous_load.run (rng_for tag) cfg ~controller
        ~make_source:(rcbr_factory ~p))

let run_mbac_rare ~profile ~p ~t_m ~alpha_ce ~tag =
  let capacity = Mbac.Params.capacity p in
  let controller = ce_controller ~capacity ~t_m ~alpha_ce in
  let cfg = sim_config ~profile ~p ~t_m in
  let trials, pilot_batches =
    match profile with Quick -> (1024, 100.0) | Full -> (8192, 1000.0)
  in
  let scfg =
    { (Mbac_sim.Splitting.default_config
         ~pilot_time:(pilot_batches *. cfg.Mbac_sim.Continuous_load.batch_length))
      with
      Mbac_sim.Splitting.trials_per_level = trials;
      seed_tag = tag }
  in
  Mbac_telemetry.Timeseries.set_label tag;
  (* Cells run sequentially; the engine parallelizes its own clone
     trials over the worker pool (results independent of [!jobs]). *)
  Mbac_telemetry.Profile.span "experiments.run_mbac_rare" (fun () ->
      Mbac_sim.Splitting.run ~jobs:!jobs ~seed:!seed scfg cfg ~controller
        ~make_source:(rcbr_factory ~p))

let csv_dir = ref None
let current_section = ref "untitled"
let tables_in_section = ref 0

let section fmt id title =
  current_section := id;
  tables_in_section := 0;
  Log.info (fun m -> m "section %s: %s" id title);
  Format.fprintf fmt "@.=== %s: %s ===@." id title

(* Quote CSV fields that need it (commas / quotes / spaces are fine to
   leave unquoted except commas and quotes). *)
let csv_field s =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') s then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
  else s

let dump_csv ~header ~rows =
  match !csv_dir with
  | None -> ()
  | Some dir ->
      (try if not (Sys.file_exists dir) then Sys.mkdir dir 0o755
       with Sys_error _ -> ());
      incr tables_in_section;
      let suffix =
        if !tables_in_section = 1 then ""
        else Printf.sprintf "-%d" !tables_in_section
      in
      let path = Filename.concat dir (!current_section ^ suffix ^ ".csv") in
      let oc = open_out path in
      let emit cells =
        output_string oc (String.concat "," (List.map csv_field cells));
        output_char oc '\n'
      in
      emit header;
      List.iter emit rows;
      close_out oc

let table fmt ~header ~rows =
  dump_csv ~header ~rows;
  let all = header :: rows in
  let n_cols = List.length header in
  let width c =
    List.fold_left
      (fun acc row ->
        match List.nth_opt row c with
        | Some cell -> max acc (String.length cell)
        | None -> acc)
      0 all
  in
  let widths = List.init n_cols width in
  let print_row row =
    List.iteri
      (fun c cell ->
        let w = List.nth widths c in
        Format.fprintf fmt "%s%s" (String.make (w - String.length cell + 2) ' ') cell)
      row;
    Format.fprintf fmt "@."
  in
  print_row header;
  Format.fprintf fmt "%s@."
    (String.make (List.fold_left ( + ) 0 widths + (2 * n_cols)) '-');
  List.iter print_row rows

let fnum x =
  if Float.is_nan x then "nan"
  else if x = 0.0 then "0"
  else Printf.sprintf "%.2e" x

let fnum3 x =
  if Float.is_nan x then "nan" else Printf.sprintf "%.3g" x
