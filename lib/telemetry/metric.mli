(** Telemetry metric cells: counters, float sums, gauges, and
    fixed-bucket and quantile histograms.  A cell is the only
    representation of a metric: {!Metrics.Handle} records into one,
    {!Snapshot} holds copies of them, and {!merge_into} is the only
    merge.

    A cell is a single-domain mutable value.  Cross-domain aggregation
    never shares a cell: each task mutates its own shard's cells and
    whole shards are merged afterwards ({!Shard}), in submission order,
    so the aggregate is independent of the worker-pool schedule. *)

module Histogram : sig
  type t
  (** Fixed-width buckets over [\[lo, hi)] plus dedicated underflow
      ([x < lo]) and overflow ([x >= hi]) buckets. *)

  val create : lo:float -> hi:float -> bins:int -> t
  (** @raise Invalid_argument if [hi <= lo] or [bins <= 0]. *)

  val observe : t -> float -> unit
  (** Buckets are half-open: a value on an interior edge counts in the
      bucket above it, [x = lo] lands in bucket 0, [x = hi] in the
      overflow bucket.  Non-finite values count only toward {!count}. *)

  val lo : t -> float
  val hi : t -> float
  val bins : t -> int

  val bucket_index : t -> float -> int
  (** [-1] for underflow, [bins] for overflow, else the bucket. *)

  val counts : t -> int array
  (** Copy of the in-range bucket counts (length [bins]). *)

  val underflow : t -> int
  val overflow : t -> int

  val sum : t -> float
  (** Sum of every finite observed value, in- or out-of-range. *)

  val count : t -> int
  (** Total observations, including out-of-range and non-finite. *)

  val copy : t -> t

  val merge_into : into:t -> t -> unit
  (** Bucket-wise addition.
      @raise Invalid_argument if the shapes (lo, hi, bins) differ. *)
end

type t =
  | Counter of int ref      (** monotone event count *)
  | Sum of float ref        (** accumulated float quantity *)
  | Gauge of float ref      (** last observed value *)
  | Hist of Histogram.t
  | Qhist of Quantile_histogram.t
      (** log-bucketed, quantile-readable ({!Quantile_histogram}) *)

val kind_name : t -> string
(** ["counter"] | ["sum"] | ["gauge"] | ["histogram"] |
    ["quantile_histogram"]. *)

val copy : t -> t

val merge_into : into:t -> t -> unit
(** Counters and sums add, histograms add bucket-wise, and a gauge takes
    the merged-in (right) value — merging shards in submission order
    therefore gives last-writer-wins in that order.
    @raise Invalid_argument on kind or histogram-shape mismatch. *)
