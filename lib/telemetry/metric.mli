(** Telemetry metric cells: counters, float sums, gauges and
    histograms.  A cell is the only representation of a metric:
    {!Metrics.Handle} records into one, {!Snapshot} holds copies of
    them, and {!merge_into} is the only merge.

    A cell is a single-domain mutable value.  Cross-domain aggregation
    never shares a cell: each task mutates its own shard's cells and
    whole shards are merged afterwards ({!Shard}), in submission order,
    so the aggregate is independent of the worker-pool schedule. *)

type flat = { mutable value : float }
(** A float cell.  A record of one float field is stored flat, so
    storing a new value into it allocates nothing (a [float ref] would
    box every value stored). *)

type t =
  | Counter of int ref      (** monotone event count *)
  | Sum of flat             (** accumulated float quantity *)
  | Gauge of flat           (** last observed value *)
  | Hist of Histogram.t     (** linear or log bucket layout *)

val kind_name : t -> string
(** ["counter"] | ["sum"] | ["gauge"] | ["histogram"] (linear layout) |
    ["quantile_histogram"] (log layout). *)

val copy : t -> t

val merge_into : into:t -> t -> unit
(** Counters and sums add, histograms add bucket-wise, and a gauge takes
    the merged-in (right) value — merging shards in submission order
    therefore gives last-writer-wins in that order.
    @raise Invalid_argument on kind or histogram-layout mismatch. *)
