(* CLI for the paper-reproduction experiments:
     experiments --list
     experiments --run fig5 [--full] [--seed N]
     experiments --all [--full]                  *)

open Cmdliner

let run_experiments list_only ids all analysis_only full seed jobs csv_dir tele
    =
  match jobs with
  | Some j when j < 1 -> Error "--jobs must be >= 1"
  | _ ->
  Mbac_telemetry_cli.Flags.install tele;
  Mbac_experiments.Common.seed := seed;
  (match jobs with
  | Some j -> Mbac_experiments.Common.jobs := j
  | None -> ());
  Mbac_experiments.Common.csv_dir := csv_dir;
  let profile =
    if full then Mbac_experiments.Common.Full else Mbac_experiments.Common.Quick
  in
  let fmt = Format.std_formatter in
  let result =
  if list_only then begin
    Format.fprintf fmt "Available experiments:@.";
    List.iter
      (fun e ->
        Format.fprintf fmt "  %-10s %s%s@." e.Mbac_experiments.Registry.id
          e.Mbac_experiments.Registry.title
          (if e.Mbac_experiments.Registry.simulation then "" else " [analysis]"))
      Mbac_experiments.Registry.all;
    Ok ()
  end
  else if all then begin
    Mbac_experiments.Registry.run_all ~profile fmt;
    Ok ()
  end
  else if analysis_only then begin
    Mbac_experiments.Registry.run_analysis_only ~profile fmt;
    Ok ()
  end
  else
    match ids with
    | [] -> Error "nothing to do: use --list, --all, --analysis or --run ID"
    | ids ->
        let rec go = function
          | [] -> Ok ()
          | id :: rest -> (
              match Mbac_experiments.Registry.find id with
              | Some e ->
                  Mbac_experiments.Registry.run_entry ~profile fmt e;
                  go rest
              | None -> Error (Printf.sprintf "unknown experiment %S" id))
        in
        go ids
  in
  (match result with
  | Ok () -> Mbac_telemetry_cli.Flags.finish tele
  | Error _ -> ());
  result

let list_flag =
  Arg.(value & flag & info [ "list"; "l" ] ~doc:"List available experiments.")

let run_ids =
  Arg.(value & opt_all string [] & info [ "run"; "r" ] ~docv:"ID"
         ~doc:"Run experiment $(docv) (repeatable).")

let all_flag = Arg.(value & flag & info [ "all"; "a" ] ~doc:"Run every experiment.")

let analysis_flag =
  Arg.(value & flag & info [ "analysis" ]
         ~doc:"Run only the analysis (no-simulation) experiments.")

let full_flag =
  Arg.(value & flag & info [ "full" ]
         ~doc:"Paper-grade accuracy (slow); default is the quick profile.")

let seed_opt =
  Arg.(value & opt int 20260706 & info [ "seed" ] ~docv:"N"
         ~doc:"Experiment random seed.")

let jobs_opt =
  Arg.(value & opt (some int) None
       & info [ "jobs"; "j" ] ~docv:"N"
           ~doc:"Simulation worker domains (default: the core count, at \
                 most 8; explicit values are clamped to the same cap, \
                 overridable via \\$MBAC_DOMAIN_CAP).  Results are \
                 bit-identical for every value: streams are derived from \
                 --seed and the cell tag, never from the schedule.")

let csv_dir_opt =
  Arg.(value & opt (some string) None
       & info [ "csv-dir" ] ~docv:"DIR"
           ~doc:"Also write every result table as CSV under $(docv).")

let cmd =
  let term =
    Term.(
      const run_experiments $ list_flag $ run_ids $ all_flag $ analysis_flag
      $ full_flag $ seed_opt $ jobs_opt $ csv_dir_opt
      $ Mbac_telemetry_cli.Flags.term)
  in
  let exits = Cmd.Exit.defaults in
  Cmd.v
    (Cmd.info "experiments" ~exits
       ~doc:"Reproduce the figures of Grossglauser & Tse, 'A Framework for \
             Robust Measurement-Based Admission Control'")
    Term.(term_result' ~usage:true term)

let () = exit (Cmd.eval cmd)
