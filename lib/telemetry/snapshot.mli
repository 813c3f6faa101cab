(** Name-sorted snapshots of a shard's metric table, with JSON and
    Prometheus-style renderings.

    A snapshot holds copies of the shard's cells: taking one never
    perturbs the shard it came from, and recording after it never
    changes the snapshot.  Snapshots do not merge; shards do, at the
    pool join ({!Shard.merge_into_current}). *)

type value =
  | Counter of int
  | Sum of float
  | Gauge of float
  | Histogram of Histogram.t

type t

val current : unit -> t
(** Snapshot the calling domain's current shard. *)

val find : t -> string -> value option
val bindings : t -> (string * value) list

val to_json : t -> string
(** One JSON object keyed by metric name, names sorted; each value
    carries a ["kind"] discriminator ({!Metric.kind_name}).  A linear
    histogram lists every bucket count; a log one renders its non-zero
    buckets sparsely plus deterministic [p50]/[p90]/[p99]/[p999]
    readouts.  Deterministic byte-for-byte. *)

val to_prometheus : t -> string
(** Prometheus text exposition: counters/sums as [counter], gauges as
    [gauge], linear histograms as cumulative [le]-bucketed [histogram]
    series (the underflow bucket folds into every cumulative count, per
    the Prometheus convention that buckets count everything [<= le]),
    and log histograms as [summary] series with pre-computed quantile
    labels.  Both layouts also emit explicit
    [<name>_underflow_total] / [<name>_overflow_total] counters, since
    out-of-range observations are invisible in the cumulative
    buckets. *)

val write_files : t -> path:string -> unit
(** Write [to_json] to [path] and [to_prometheus] to [path ^ ".prom"]. *)
