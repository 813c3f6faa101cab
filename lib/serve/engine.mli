(** The online admission-decision engine.

    One engine serves one link.  The execution model is wall-clock
    concurrency (unlike the Domain-pool replication everywhere else in
    the tree):

    - the {e decision fast path} ({!decide}) is wait-free — it reads the
      admitted-flow/admitted-load counters ([Atomic] integers, load in
      fixed point) and the current {!published} estimate record
      ([Atomic.get] of an immutable value) and never takes a lock,
      blocks, or allocates anything but its small result;
    - the {e accounting path} ({!add}/{!subtract}) is lock-free —
      compare-and-set on the counters, so {!add} can refuse a flow that
      would overflow the sums and {!subtract} a departure that would
      take them below zero;
    - the {e measurement path} ({!run_measurement}) is the only place
      the estimator state is touched.  It reads the counters as one
      cross-section, feeds the estimator, recomputes every criterion's
      admissible count, and publishes a fresh immutable {!published}
      record with a single [Atomic.set].  Deciders can never observe a
      torn estimate: they either see the whole old record or the whole
      new one.  Measurement runs inline every [measure_every]-th
      accounting call (deterministic, single-threaded replay) or on a
      background domain ({!start_background}, wall-clock daemons).

    Loads cross the counter boundary in fixed point at {!fp_scale}
    units per load unit, so per-flow loads are quantized to
    [1/fp_scale] (documented in SERVING.md); the same quantization is
    applied on every path, which is what makes replay byte-exact. *)

(** A criterion is compiled to the {!Mbac.Criterion.rule} the simulated
    controllers use, and applied to the published estimate with
    {!Mbac.Criterion.limit}; criterion.mli states the rule, the
    usable-estimate test and the cautious bootstrap. *)
type criterion_spec =
  | Gaussian of { cname : string; p_ce : float }
      (** The paper's certainty-equivalent Gaussian criterion (eqn (6))
          at target [p_ce] ({!Mbac.Criterion.gaussian}), driven by the
          measured mean and variance. *)
  | Hoeffding of { cname : string; p_ce : float; peak : float }
      (** Distribution-free Hoeffding bound at target [p_ce] for flows
          of declared peak rate [peak] ({!Mbac.Criterion.hoeffding}),
          driven by the measured mean only. *)

type config = {
  capacity : float;              (** initial link capacity (> 0, finite) *)
  criteria : criterion_spec list;  (** nonempty; [Decide] indexes into it *)
  estimator : Mbac.Estimator.t;
      (** owned by the engine's measurement path from here on; do not
          observe or read it elsewhere *)
  measure_every : int;
      (** [k >= 1]: run a measurement pass synchronously after every
          [k]-th {!add}/{!subtract} (deterministic).  [0]: no inline
          measurement — drive {!run_measurement} externally or with
          {!start_background}. *)
}

type t

type decision = { admit : bool; admissible : int; flows : int }

type stats = {
  flows : int;
  admitted_load : float;
  capacity : float;
  requests : int;
  decisions : int;
  admits : int;
  updates : int;
}

val fp_scale : int
(** Fixed-point units per load unit (2{^20}). *)

val create :
  ?decision_log:Buffer.t -> ?decision_log_file:string -> config -> t
(** The decision log ({!log_decision}) goes to one of two sinks.
    [decision_log] keeps every line in the caller's buffer.
    [decision_log_file] is created (or truncated) here and streamed to:
    lines are staged in a buffer of {!log_staging_bytes}, which is
    written to the file whenever the next line might not fit, and by
    {!close_log}.  Both give the same bytes.
    @raise Invalid_argument on empty criteria, [p_ce] outside (0, 0.5],
    non-positive [peak], non-finite or non-positive [capacity], negative
    [measure_every], more than 65535 criteria, or both sinks.
    @raise Sys_error if [decision_log_file] cannot be opened for
    writing. *)

val log_staging_bytes : int
(** Size of a file sink's staging buffer (64 KiB): the most decision-log
    bytes an engine holds in memory, and so the most a kill loses. *)

val criterion_names : t -> string array

val initialize : t -> capacity:float -> unit
(** Zero the counters, reset the estimator, publish a bootstrap record
    against the new capacity.
    @raise Invalid_argument on non-finite or non-positive capacity. *)

val decide : t -> criterion:int -> load:float -> decision
(** Wait-free.  Admit iff [flows < M(criterion)] under the published
    estimates {e and} the admitted load plus [load] fits the capacity.
    While no usable estimate is published, [M] is
    {!Mbac.Criterion.bootstrap} [flows] ([flows + 1]): one flow at a
    time, the controllers' cautious bootstrap.
    Counts into the [serve_decisions/admit/reject] metrics.  The caller
    is responsible for [criterion] being in range and [load] being
    finite and non-negative ({!handle} validates wire input). *)

val add : t -> load:float -> now:float -> bool
(** Lock-free accounting of an admitted flow; [now] is the virtual (or
    wall) time stamped on the cross-section if this call triggers an
    inline measurement pass.  Returns [false], and changes no counter,
    when the flow would take the fixed-point load sum or sum of squares
    past [max_int]. *)

val subtract : t -> load:float -> now:float -> bool
(** Lock-free accounting of a departed flow, the inverse of {!add}.
    Returns [false], and changes no counter, when no flow is admitted or
    the departure would take the fixed-point load sum or sum of squares
    below zero: a departure no [add] matched. *)

val log_decision : t -> criterion:int -> admit:bool -> unit
(** Append one JSONL line (server-assigned [seq]) to the decision log;
    no-op (but still sequence-advancing) without one.  Rendering the
    line allocates nothing.
    @raise Sys_error if writing the staged lines to the file fails; the
    line is then not logged. *)

val close_log : t -> unit
(** Write the staged lines to the decision-log file and close it.  No-op
    for an in-memory log or none, and on a second call; the engine must
    not log after it.
    @raise Sys_error if that last write fails (a full disk); the file is
    closed all the same, and the staged lines are lost. *)

(** One decision-log line, rendered without building a JSON tree: the
    bytes of [Mbac_telemetry.Json.obj] over [seq], [criterion], [admit]
    and [flows], then a newline. *)
module Log_line : sig
  type criterion
  (** A criterion name's escaped ["criterion":…] fragment. *)

  val criterion : string -> criterion

  val add : Buffer.t -> seq:int -> criterion -> admit:bool -> flows:int -> unit
end

val run_measurement : t -> now:float -> unit
(** One measurement pass (serialized by an internal mutex): counters →
    cross-section → estimator → per-criterion admissible counts →
    publish. *)

val stats : t -> stats

val handle : t -> Protocol.request -> Protocol.response
(** Full request dispatch with wire-input validation: out-of-range
    criterion indices and non-finite/negative loads or capacities come
    back as [Error_reply] (codes 1 capacity, 2 criterion, 3 load), not
    exceptions; so do an [Add] that {!add} refuses and a [Subtract] that
    {!subtract} refuses (code 3), and a
    [Log_decision] whose staged lines cannot be written to the
    decision-log file (code 4; that line is lost, and its [seq] is
    skipped).  [Shutdown] answers [Ok_reply]; acting on it
    is the transport's job. *)

val start_background : t -> interval:float -> unit
(** Spawn a measurement domain running {!run_measurement} every
    [interval] wall-clock seconds (cross-sections stamped with wall
    time).  @raise Invalid_argument if one is already running or
    [interval <= 0]. *)

val stop_background : t -> unit
(** Stop and join the measurement domain, folding its telemetry shard
    into the calling domain's. *)
