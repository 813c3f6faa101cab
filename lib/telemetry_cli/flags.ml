open Cmdliner

type t = {
  metrics_out : string option;
  trace_out : string option;
  trace_sample : int;
  series_out : string option;
  series_interval : float;
  profile : bool;
  profile_out : string option;
  log_level : Logs.level option;
}

let metrics_out_arg =
  Arg.(value & opt (some string) None
       & info [ "metrics-out" ] ~docv:"FILE"
           ~doc:"Write the final metric snapshot to $(docv) (JSON) and \
                 $(docv).prom (Prometheus text).  Aggregation is \
                 deterministic: the snapshot is byte-identical for every \
                 --jobs value.")

let trace_out_arg =
  Arg.(value & opt (some string) None
       & info [ "trace-out" ] ~docv:"FILE"
           ~doc:"Enable event tracing and write the JSON-Lines trace \
                 (admission decisions, overflow episodes, estimator \
                 snapshots) to $(docv), keyed to simulation virtual time.  \
                 Byte-identical for every --jobs value.")

let trace_sample_arg =
  Arg.(value & opt int 1
       & info [ "trace-sample" ] ~docv:"K"
           ~doc:"Keep every $(docv)-th event of high-volume trace kinds \
                 (per-decision and per-burst events); episode and run \
                 boundary events are always kept.")

let series_out_arg =
  Arg.(value & opt (some string) None
       & info [ "series-out" ] ~docv:"FILE"
           ~doc:"Enable the windowed metric time series and write it as \
                 JSON Lines to $(docv): one window per --series-interval \
                 of virtual time with counter/sum/histogram deltas and \
                 current gauges.  Byte-identical for every --jobs value.")

let series_interval_arg =
  Arg.(value & opt float 100.0
       & info [ "series-interval" ] ~docv:"T"
           ~doc:"Time-series window length in virtual-time units \
                 (simulated time for the continuous-load simulator, \
                 bursts for the impulsive driver).")

let profile_arg =
  Arg.(value & flag
       & info [ "profile" ]
           ~doc:"Measure wall-clock profiling spans (pool task latency, \
                 experiment phases, hot numeric paths) and print the \
                 report to stderr on exit.  Never perturbs stdout, \
                 metrics, or trace output.")

let profile_out_arg =
  Arg.(value & opt (some string) None
       & info [ "profile-out" ] ~docv:"FILE"
           ~doc:"Measure wall-clock profiling spans and write the span \
                 table as JSON to $(docv) on exit (implies span \
                 recording; combine with --profile for the stderr \
                 table).")

let make metrics_out trace_out trace_sample series_out series_interval profile
    profile_out log_level =
  { metrics_out; trace_out; trace_sample; series_out; series_interval;
    profile; profile_out; log_level }

(* The values {!install} would refuse, as usage errors of every binary
   that takes the flags. *)
let check t =
  if t.trace_sample < 1 then Error "--trace-sample must be >= 1"
  else if not (Float.is_finite t.series_interval && t.series_interval > 0.0)
  then Error "--series-interval must be finite and > 0"
  else Ok t

let term =
  Term.(
    term_result' ~usage:true
      (const check
      $ (const make $ metrics_out_arg $ trace_out_arg $ trace_sample_arg
        $ series_out_arg $ series_interval_arg $ profile_arg
        $ profile_out_arg $ Logs_cli.level ())))

(* [-v]/[-q] as [Logs_cli.level] reads them, without its [--verbosity]. *)
let verbosity_arg =
  let verbose =
    Arg.(value & flag_all
         & info [ "v"; "verbose" ]
             ~doc:"Increase verbosity: once for info, twice for debug.")
  in
  let quiet = Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"Log nothing.") in
  Term.(
    const (fun verbose quiet ->
        if quiet then None
        else
          match verbose with
          | [] -> Some Logs.Warning
          | [ _ ] -> Some Logs.Info
          | _ -> Some Logs.Debug)
    $ verbose $ quiet)

let output_term =
  Term.(
    const (fun metrics_out trace_out profile profile_out log_level ->
        make metrics_out trace_out 1 None 100.0 profile profile_out log_level)
    $ metrics_out_arg $ trace_out_arg $ profile_arg $ profile_out_arg
    $ verbosity_arg)

let install t =
  Mbac_telemetry.Logging.setup t.log_level;
  Mbac_telemetry.Trace.set_enabled (t.trace_out <> None);
  Mbac_telemetry.Trace.set_sample_every t.trace_sample;
  Mbac_telemetry.Timeseries.set_enabled (t.series_out <> None);
  if t.series_out <> None then
    Mbac_telemetry.Timeseries.set_interval t.series_interval;
  Mbac_telemetry.Profile.set_enabled (t.profile || t.profile_out <> None)

let write_with path f =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> f oc)

let finish t =
  (match t.metrics_out with
  | Some path ->
      Mbac_telemetry.Snapshot.write_files (Mbac_telemetry.Snapshot.current ())
        ~path
  | None -> ());
  (match t.trace_out with
  | Some path -> write_with path Mbac_telemetry.Trace.dump
  | None -> ());
  (match t.series_out with
  | Some path -> write_with path Mbac_telemetry.Timeseries.dump
  | None -> ());
  (match t.profile_out with
  | Some path ->
      write_with path (fun oc ->
          output_string oc (Mbac_telemetry.Profile.to_json ()))
  | None -> ());
  if t.profile then Mbac_telemetry.Profile.report Format.err_formatter
