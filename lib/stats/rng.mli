(** Deterministic, splittable pseudo-random number generator.

    The generator is xoshiro256++ seeded through SplitMix64, giving
    high-quality 64-bit streams with a tiny state.  Every simulation in
    this repository threads an explicit [t] so that runs are exactly
    reproducible from a seed, and independent replications use [split].

    The state is the four 64-bit xoshiro words in a 32-byte [Bytes.t],
    read and written with the unsafe 64-bit bytes primitives, so a step
    runs on unboxed [int64]s and {!float} allocates nothing.  It is not
    a [Bigarray], whose malloc'd custom block every new generator (one
    {!derive} per splitting trial) and every {!copy} would pay for. *)

type t
(** Mutable generator state. *)

val create : seed:int -> t
(** [create ~seed] builds a generator deterministically from [seed]
    (any int, including 0, is fine: the seed is diffused by SplitMix64). *)

val derive : seed:int -> tag:string -> t
(** [derive ~seed ~tag] builds a generator from the root [seed] and a
    textual stream [tag] (experiment cell, replication index, …).  The
    tag is hashed with 64-bit FNV-1a over {e all} of its bytes and mixed
    with the seed through SplitMix64, so distinct tags — however long,
    and regardless of shared prefixes — yield distinct, statistically
    independent streams.  The derivation depends only on [(seed, tag)],
    never on call order, which is what makes parallel replication
    schedules deterministic (see {!Mbac_sim.Parallel}). *)

val copy : t -> t
(** [copy t] is an independent generator with identical current state. *)

val split : t -> t
(** [split t] draws from [t] to seed a fresh, statistically independent
    generator.  Advances [t]. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val float : t -> float
(** [float t] is uniform on [0, 1) with 53-bit resolution. *)

val float_pos : t -> float
(** [float_pos t] is uniform on (0, 1): never returns 0.0 (safe for [log]). *)

val int : t -> int -> int
(** [int t n] is uniform on [0, n-1] (rejection sampling; unbiased).
    @raise Invalid_argument if [n <= 0]. *)
