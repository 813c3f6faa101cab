(** Opt-in wall-clock profiling spans over a monotonic clock.

    Disabled by default: {!span} then costs one atomic read and calls
    the thunk directly, so the default output of every binary stays
    byte-identical whether or not the code is instrumented.  When
    enabled ([--profile]), span durations are accumulated into a global
    table (safe across domains) that {!report} prints — to stderr in the
    binaries, so stdout, metric snapshots, and traces are never
    perturbed.

    Timings come from [Monotonic_clock] (CLOCK_MONOTONIC via the
    bechamel stubs), so they are wall-clock, immune to system clock
    steps, and meaningful across domains. *)

val set_enabled : bool -> unit

val span : string -> (unit -> 'a) -> 'a
(** Run the thunk; when profiling is enabled, record its wall-clock
    duration under the given span name (exceptions still propagate, and
    the partial span is recorded).  Each span's durations go into a
    {!Histogram} of the default log layout, so its quantiles carry a
    bounded relative error ({!Histogram.max_rel_error}). *)

val report : Format.formatter -> unit
(** Human-readable table of the spans, sorted by name (count, total,
    mean, p50, p99, min, max); prints a placeholder line when no spans
    were recorded. *)

val to_json : unit -> string
(** The span table as one JSON object keyed by span name —
    [--profile-out]'s payload, archivable next to BENCH.json.  Values
    are wall-clock measurements, so bytes vary run to run. *)
