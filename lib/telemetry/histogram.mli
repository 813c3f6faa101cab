(** Bucketed histograms with explicit out-of-range accounting and a
    deterministic quantile readout, in one of two bucket layouts.

    A {e linear} layout needs a known scale: [bins] equal buckets over
    [\[lo, hi)].  Where the natural scale of a quantity varies across
    sweep cells — episode durations, decision latencies — a {e log}
    layout covers many orders of magnitude with a bounded {e relative}
    quantization error instead: bucket [i] covers
    [\[lo * g^i, lo * g^(i+1))] with [g = 10^(1/buckets_per_decade)].
    The default log layout ({!default_log}: [lo = 1e-9], [24] decades,
    [20] buckets per decade, 480 buckets) spans [1e-9 .. 1e15], wide
    enough for nanosecond wall-clock spans and virtual-time durations
    alike, so every call site of one name can share it.

    Buckets are half-open: a value on an interior edge counts in the
    bucket above it, [x = lo] lands in bucket 0.  Out-of-range values
    are never dropped silently: finite [x < lo] (in a log layout zero
    and negatives too) counts as {!underflow}, finite [x >= hi] as
    {!overflow}.  Non-finite values count only toward {!count}.

    {!quantile} returns the midpoint (geometric, in a log layout) of
    the bucket holding the empirical rank-[ceil (q*n)] observation, and
    clamps out-of-range ranks to [lo] / [hi]; in a log layout its
    relative error against the exact empirical quantile is bounded by
    [sqrt g - 1] ({!max_rel_error}; about 5.9% at 20 buckets per
    decade).  The readout is integer-rank arithmetic over integer
    bucket counts: deterministic byte-for-byte, merge-order-invariant.

    A histogram is a single-domain mutable value, like every
    {!Metric.t} cell that holds one. *)

type layout =
  | Linear of { lo : float; hi : float; bins : int }
  | Log of { lo : float; decades : int; buckets_per_decade : int }

val default_log : layout
(** [Log { lo = 1e-9; decades = 24; buckets_per_decade = 20 }]. *)

type t

val create : layout -> t
(** @raise Invalid_argument for a linear layout with [hi <= lo] or
    [bins <= 0], or a log layout with [lo] not finite and positive, a
    non-positive count, or more than [2^20] buckets. *)

val observe : t -> float -> unit
(** Inlined, with the running sum stored flat: where it is inlined the
    argument stays unboxed, and an observation allocates nothing. *)

val observe_fixed : t -> int -> scale:int -> unit
(** [observe_fixed t n ~scale] observes [n / scale] (a duration in
    integer nanoseconds at [scale = 1_000_000_000], say).  No float
    crosses the call, so it allocates nothing even where {!observe} is
    not inlined (a build without cross-module inlining). *)

val layout : t -> layout
val lo : t -> float

val hi : t -> float
(** A log layout's is [lo * 10^decades]. *)

val buckets : t -> int
(** In-range bucket count: [bins], or [decades * buckets_per_decade]. *)

val bucket_index : t -> float -> int
(** [-1] for underflow, [buckets] for overflow, else the bucket. *)

val bucket_lower : t -> int -> float
(** Lower bound of bucket [i]; [bucket_lower t (buckets t)] is [hi] up
    to rounding. *)

val bucket_mid : t -> int -> float
(** The point {!quantile} reads for bucket [i]. *)

val counts : t -> int array
(** Copy of the in-range bucket counts (length {!buckets}). *)

val underflow : t -> int
val overflow : t -> int

val sum : t -> float
(** Sum of every finite observed value, in- or out-of-range. *)

val count : t -> int
(** Total observations, including out-of-range and non-finite. *)

val quantile : t -> float -> float
(** [quantile t q] for [q] in [\[0, 1\]]: the bucket-midpoint estimate
    of the empirical [q]-quantile over all finite observations, with
    out-of-range ranks clamped to [lo] / [hi]; [nan] when empty.
    @raise Invalid_argument if [q] is outside [\[0, 1\]]. *)

val max_rel_error : t -> float
(** A log layout's worst-case relative error of {!quantile} against the
    exact empirical quantile, for in-range observations:
    [10^(1/(2*buckets_per_decade)) - 1].  A linear layout's error is
    absolute (half a bucket width), so it has none: [nan]. *)

val copy : t -> t

val merge_into : into:t -> t -> unit
(** Bucket-wise addition.
    @raise Invalid_argument if the layouts differ. *)

val equal : t -> t -> bool
