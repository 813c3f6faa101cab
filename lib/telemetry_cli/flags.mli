(** Shared cmdliner flags for the telemetry subsystem.

    Every binary exposes the same surface:

    - [--metrics-out FILE]: write the final metric snapshot as JSON to
      [FILE] and as Prometheus text to [FILE.prom];
    - [--trace-out FILE]: enable event tracing and write the JSONL trace
      to [FILE];
    - [--trace-sample K]: keep every K-th event of high-volume sampled
      kinds (decisions, bursts);
    - [--series-out FILE]: enable the windowed metric time series
      ({!Mbac_telemetry.Timeseries}) and write it as JSONL to [FILE];
    - [--series-interval T]: time-series window length in virtual-time
      units (default 100);
    - [--profile]: record wall-clock spans and print the report to
      stderr on exit;
    - [--profile-out FILE]: record wall-clock spans and write the span
      table as JSON to [FILE] on exit;
    - [-v]/[-q]/[--verbosity LEVEL] (from [Logs_cli]): progress/log
      verbosity, rendered by the shared timestamped stderr reporter.

    Usage: include {!term} in the binary's cmdliner term, call
    {!install} first thing in the main function, and {!finish} after the
    work is done. *)

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

val term : t Cmdliner.Term.t
(** Rejects [--trace-sample] below 1 and a non-finite or non-positive
    [--series-interval] as usage errors (exit 124), for every binary
    that takes it. *)

val output_term : t Cmdliner.Term.t
(** The subset for binaries that write no series and sample no traces:
    [--metrics-out], [--trace-out], [--profile], [--profile-out], [-v]
    and [-q] (without [--verbosity]).  The other fields keep {!term}'s
    defaults. *)

val install : t -> unit
(** Apply the flags: set up the [Logs] reporter/level, enable tracing
    and its sampling rate, enable the time series and set its window
    length, enable profiling (when either [--profile] or
    [--profile-out] asks). *)

val finish : t -> unit
(** Write [--metrics-out] / [--trace-out] / [--series-out] /
    [--profile-out] files from the calling domain's shard and print the
    [--profile] report to stderr. *)
