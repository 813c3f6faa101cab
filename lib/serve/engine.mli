(** The online admission-decision engine.

    One engine serves one link.  Its state is plain mutable data, the
    few numbers the paper's controller keeps: the admitted flows and
    their load sums, the capacity, each criterion's admissible count M,
    and the estimator that M is computed from.  The engine is
    single-threaded: one thread at a time may call the functions here.
    [Server.serve] runs every connection and its measurement timer under
    one daemon lock; the in-process client ([Client.inproc]) runs in
    its caller's thread and needs no lock.

    - {!decide} reads the flow count, the load sum and the current M,
      and allocates nothing;
    - {!add}/{!subtract} account an admitted or departed flow, and
      refuse one that would take the sums past [max_int] or below zero;
    - {!run_measurement} is the only place the estimator is touched.  It
      reads the counters as one cross-section, feeds the estimator, and
      refreshes every criterion's M in place.  It runs inline every
      [measure_every]-th accounting call (deterministic, single-threaded
      replay) or from a daemon's wall-clock timer
      ([Server.serve ~measure_interval]).

    Loads cross the counter boundary in fixed point at {!fp_scale}
    units per load unit, so per-flow loads are quantized to
    [1/fp_scale] (documented in SERVING.md); the same quantization is
    applied on every path, which is what makes replay byte-exact. *)

(** A criterion is compiled to the {!Mbac.Criterion.rule} the simulated
    controllers use, and applied to the measured estimate with
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
      (** owned by the engine's measurement pass from here on; do not
          observe or read it elsewhere *)
  measure_every : int;
      (** [k >= 1]: run a measurement pass synchronously after every
          [k]-th {!add}/{!subtract} (deterministic).  [0]: no inline
          measurement — drive {!run_measurement} externally or with
          [Server.serve ~measure_interval]. *)
}

type t

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

val fp_of_load : float -> int
(** A load in fixed point, rounded to the nearest unit: within
    2{^-21} of the load. *)

val fp_sq : int -> int
(** The fixed-point square of a fixed-point load [fp]: [l² · fp_scale]
    for [l = fp / fp_scale], rounded.  The float product carries 53
    bits, so above [l ≈ 90.5] ([l² · fp_scale > 2{^53}]) the result is
    exact only to half an ulp of [l² · fp_scale]: at most 2{^6} units
    at the largest valid load (1e6). *)

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

val initialize : t -> capacity:float -> unit
(** Zero the counters, reset the estimator, and go back to the
    bootstrap M against the new capacity.
    @raise Invalid_argument on non-finite or non-positive capacity. *)

val admissible : t -> criterion:int -> int
(** The criterion's admissible count M under the latest measurement.
    While that has no usable estimate, [M] is
    {!Mbac.Criterion.bootstrap} [flows] ([flows + 1]): one flow at a
    time, the controllers' cautious bootstrap. *)

val decide : t -> criterion:int -> load:float -> bool
(** Admit iff [flows < admissible t ~criterion] {e and} the admitted
    load plus [load] fits the capacity.  Changes no flow count and no
    M, so a reply reads both after it.
    Counts into the [serve_decisions/admit/reject] metrics.  The caller
    is responsible for [criterion] being in range and [load] being
    finite and non-negative ({!handle} validates wire input). *)

val add : t -> load:float -> now:float -> bool
(** Account an admitted flow; [now] is the time stamped on the
    cross-section if this call triggers an inline measurement pass (over
    the wire, the client's virtual time).  Returns [false], and changes
    no counter, when the flow would take the fixed-point load sum or sum
    of squares past [max_int]. *)

val subtract : t -> load:float -> now:float -> bool
(** Account a departed flow, the inverse of {!add}.
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
(** One measurement pass, stamped [now]: counters → cross-section →
    estimator → each criterion's admissible count M, refreshed in place.
    Every pass of one engine must use one clock: the clients' virtual
    time (inline passes) or wall-clock time (a daemon's timer), never
    both, or the estimator's filter sees time jump. *)

val stats : t -> stats

(** {1 Requests} *)

val fields : t -> Protocol.Fields.t
(** The engine's request record: {!Protocol.read_request} reads a frame
    into it, and {!reply} answers it.  One suffices, since one thread at
    a time uses an engine. *)

val reply : t -> Buffer.t -> unit
(** Answer the request in {!fields}: validate it, apply it, count it,
    and append its reply frame to the buffer.  This is the one
    implementation of every request kind.  Wire-input faults come back
    as [Error_reply] frames, not exceptions: out-of-range criterion
    indices and non-finite/negative loads or capacities (codes 1
    capacity, 2 criterion, 3 load), an [Add] that {!add} refuses and a
    [Subtract] that {!subtract} refuses (code 3), and a [Log_decision]
    whose staged lines cannot be written to the decision-log file
    (code 4; that line is lost, and its [seq] is skipped).  [Shutdown]
    answers [Ok_reply]; acting on it is the transport's job.  Answering
    [Decide], [Add], [Subtract] and [Log_decision], measurement passes
    included, allocates nothing; an error reply may. *)

val handle : t -> Protocol.request -> Protocol.response
(** {!reply} at the level of values, for tests and tools: the request
    is encoded, read into {!fields} and answered, and the reply
    decoded.  A [criterion] is sent as its low 16 bits, as on the
    wire. *)
