(** Metric recording against the calling domain's current {!Shard},
    through pre-resolved handles — the only way to record a metric.

    Recording is always on: the cost is an array load and an in-place
    update per call, and nothing is written anywhere unless a binary
    asks for a snapshot ([--metrics-out]).  The metric catalogue lives
    in [OBSERVABILITY.md].

    A handle names a metric once, at registration (typically at module
    level); updating through it skips the per-call string hash and
    table lookup (the resolved cell is cached per shard, so the first
    touch in each shard — e.g. in each parallel task — still goes
    through the string table).  Handles of one name address the same
    cell.

    A name is bound to the kind of its first use: updating through a
    handle whose name is already bound to a different kind raises
    [Invalid_argument] (it is a programming error, not data). *)
module Handle : sig
  type t

  val counter : string -> t
  val sum : string -> t
  val gauge : string -> t

  val histogram : string -> lo:float -> hi:float -> bins:int -> t
  (** A fixed-bucket {!Metric.Histogram}.  The shape arguments apply
      only if this handle is the first to create the histogram in a
      shard; handles of one name must agree on them, since shards with
      differently-shaped histograms of the same name refuse to
      merge. *)

  val qhist : string -> t
  (** A log-bucketed {!Quantile_histogram} at the default geometry
      ([1e-9 .. 1e15], 20 buckets per decade), so every handle of every
      name shares one shape and shards always merge — use it where the
      natural scale varies. *)

  val name : t -> string

  val inc : ?by:int -> t -> unit
  (** Increment a counter (default [by:1]). *)

  val add : t -> float -> unit
  (** Accumulate into a float sum. *)

  val set_gauge : t -> float -> unit
  (** Record the latest value of a gauge. *)

  val observe : t -> float -> unit
  (** Observe a value into a fixed-bucket histogram. *)

  val observe_q : t -> float -> unit
  (** Observe a value into a quantile histogram. *)
end
