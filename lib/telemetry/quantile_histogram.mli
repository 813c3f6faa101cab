(** Log-bucketed (HDR-style) histograms with deterministic quantile
    readout.

    Fixed-bucket {!Metric.Histogram}s need a known scale: one [(lo, hi,
    bins)] for every call site of a name.  When the natural scale of a
    quantity varies across sweep cells — episode durations, decision
    latencies — a log-bucketed histogram covers many orders of magnitude
    with a {e bounded relative} quantization error instead.

    Bucket [i] covers [\[lo * g^i, lo * g^(i+1))] with
    [g = 10^(1/buckets_per_decade)]; the default geometry
    ([lo = 1e-9], [24] decades, [20] buckets per decade — 480 buckets)
    spans [1e-9 .. 1e15], wide enough for nanosecond wall-clock spans
    and virtual-time durations alike, so every call site of one name
    can share the default shape.

    Quantile readout returns the geometric midpoint [lo * g^(i+1/2)] of
    the bucket holding the empirical rank-[ceil (q*n)] observation, so
    the relative error against the exact empirical quantile is bounded
    by [sqrt g - 1] ({!max_rel_error}; about 5.9% at 20 buckets per
    decade).  The readout is pure integer-rank arithmetic over integer
    bucket counts: deterministic byte-for-byte, merge-order-invariant.

    Out-of-range and non-positive observations are never dropped
    silently: finite [x < lo] (including zero and negatives) counts as
    {!underflow}, finite [x >= hi] as {!overflow}, and both clamp the
    quantile readout to [lo] / [hi].  Non-finite values count only
    toward {!count}, like {!Metric.Histogram}. *)

type t

val create : ?lo:float -> ?decades:int -> ?buckets_per_decade:int -> unit -> t
(** Defaults: [lo = 1e-9], [decades = 24], [buckets_per_decade = 20].
    @raise Invalid_argument if [lo <= 0], a count is non-positive, or
    the bucket array would exceed [2^20] entries. *)

val observe : t -> float -> unit

val quantile : t -> float -> float
(** [quantile t q] for [q] in [\[0, 1\]]: the bucket-midpoint estimate
    of the empirical [q]-quantile over all finite observations, with
    out-of-range ranks clamped to [lo] / [hi]; [nan] when empty.
    @raise Invalid_argument if [q] is outside [\[0, 1\]]. *)

val max_rel_error : t -> float
(** Worst-case relative error of {!quantile} against the exact
    empirical quantile, for in-range observations:
    [10^(1/(2*buckets_per_decade)) - 1]. *)

val max_rel_error_of : buckets_per_decade:int -> float

val lo : t -> float
val hi : t -> float
(** [lo * 10^decades]. *)

val buckets_per_decade : t -> int
val decades : t -> int

val buckets : t -> int
(** Total in-range bucket count, [decades * buckets_per_decade]. *)

val bucket_index : t -> float -> int
(** [-1] for underflow, [buckets] for overflow, else the bucket. *)

val bucket_lower : t -> int -> float
val bucket_mid : t -> int -> float

val counts : t -> int array
(** Copy of the in-range bucket counts. *)

val underflow : t -> int
val overflow : t -> int

val sum : t -> float
(** Sum of every finite observed value, in- or out-of-range. *)

val count : t -> int
(** Total observations, including out-of-range and non-finite. *)

val copy : t -> t

val merge_into : into:t -> t -> unit
(** Bucket-wise addition.
    @raise Invalid_argument if the shapes
    [(lo, decades, buckets_per_decade)] differ. *)

val equal : t -> t -> bool
