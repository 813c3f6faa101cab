(** The flow-level simulator.

    The default mode is the paper's continuous-load model (§4):
    effectively infinite flow arrival rate — whenever the controller's
    admissible count exceeds the current population, fresh flows are
    admitted immediately.  A finite Poisson arrival process is also
    supported ([`Poisson rate]); the continuous-load results upper-bound
    the finite-rate ones, and blocking probability becomes measurable.

    Admitted flows hold for an exponential time with mean
    [holding_time_mean] and fluctuate according to their source model.

    The link itself — flow table, load sums, overflow measurement,
    controller and admission test — is one {!Link} kernel, the same one
    [Mbac_net.Network] runs per topology link; this module adds the
    arrival process, the fluid buffer, the time averages, the stopping
    rules and the stepping/snapshot API.

    Link models:
    - [`Bufferless] (the paper's): QoS is the probability that the
      aggregate rate exceeds [capacity].
    - [`Renegotiation_blocking]: the RCBR service model of [10] — an
      {e upward} rate renegotiation counts as {e failed} when the
      post-change aggregate demand exceeds capacity ("renegotiations
      fail when the current aggregate bandwidth demand exceeds the link
      capacity", §2); the QoS metric of that service is the
      renegotiation failure probability.  The flow dynamics remain those
      of the demand (bufferless) model so the admission controller sees
      true demands.
    - [`Buffered size]: a fluid buffer of the given size absorbs
      excursions; the loss-time fraction is reported alongside the
      (bufferless-defined) overflow probability for comparison. *)

type arrival = [ `Infinite | `Poisson of float ]

type link = [ `Bufferless | `Renegotiation_blocking | `Buffered of float ]

type config = {
  capacity : float;
  holding_time_mean : float;
  arrival : arrival;           (** default [`Infinite] *)
  link : link;                 (** default [`Bufferless] *)
  utility : Mbac.Utility.t;    (** QoE scoring; default [Step] so
                                   mean utility = 1 - p_f *)
  warmup : float;              (** measurement warm-up time *)
  batch_length : float;        (** batch-means batch length; the paper
                                   samples every 2 max(T~_h, T_m, T_c) —
                                   use the same scale here *)
  target_p_q : float;          (** QoS target, for the stopping rule *)
  rel_ci : float;              (** CI convergence threshold (paper: 0.2) *)
  confidence : float;          (** CI level (paper: 0.95) *)
  min_batches : int;
  check_every_events : int;    (** stopping-rule test period *)
  max_time : float;            (** hard cap on simulated time *)
  max_events : int;            (** hard cap on processed events *)
  max_flows : int;             (** safety cap on concurrent flows *)
}

val default_config :
  capacity:float -> holding_time_mean:float -> target_p_q:float -> config
(** Sensible defaults: infinite arrivals, bufferless link, step utility,
    warmup and batch length derived from the holding time,
    [rel_ci = 0.2], [confidence = 0.95], [min_batches = 16], caps high
    enough for the paper's experiments. *)

type result = {
  p_f : float;                       (** overflow probability estimate *)
  estimate_kind : [ `Direct | `Gaussian_fit ];
  converged : bool;                  (** stopped by a §5.2 rule, not a cap *)
  ci_rel : float;                    (** relative CI half-width (direct) *)
  mean_flows : float;                (** time-average number of flows *)
  mean_load : float;
  std_load : float;
  utilization : float;               (** mean_load / capacity *)
  mean_utility : float;              (** time-average utility of the
                                         delivered-bandwidth fraction *)
  admitted : int;
  departed : int;
  blocked : int;                     (** arrivals rejected (Poisson mode) *)
  blocking_probability : float;      (** blocked/(blocked+admitted);
                                         [nan] under infinite load *)
  reneg_attempts : int;              (** rate renegotiations offered *)
  reneg_failures : int;              (** failed under
                                         [`Renegotiation_blocking] *)
  reneg_failure_probability : float; (** failures/attempts; [nan] if none *)
  buffer_loss_fraction : float;      (** loss-time fraction ([`Buffered]);
                                         [nan] otherwise *)
  p_f_point : float;                 (** the paper's §5.2 point-sampled
                                         overflow estimate (samples every
                                         [batch_length]); an ablation
                                         against the time-weighted [p_f] *)
  sim_time : float;
  events : int;
}

val run :
  Mbac_stats.Rng.t ->
  config ->
  controller:Mbac.Controller.t ->
  make_source:(Mbac_stats.Rng.t -> start:float -> Mbac_traffic.Source.t) ->
  result
(** Run to convergence or to a cap.  The controller is [reset] first.
    Deterministic given the RNG state. *)

val pp_result : Format.formatter -> result -> unit

(** {1 Stepping and snapshot/restore}

    The same machinery as {!run}, exposed one event at a time, plus a
    deep-copy snapshot/restore used by the rare-event splitting engine
    ({!Splitting}).  A [sim] owns mutable state throughout: the event
    heap, the dense flow table, each flow's source state, the
    controller's estimator memory, and the measurement accumulators.

    {b Aliasing contract}: {!snapshot} and {!restore} each take a full
    deep copy, so a snapshot is immutable-in-practice (nothing aliases
    the live sim) and every restore yields an independent sim — clones
    never share mutable state with each other or with the parent.  The
    only shared values are immutable ones: [config], the [make_source]
    factory, and the model parameters, traces and schedules sources
    hold.  A [make_source] that captures mutable state outside the [rng]
    it is given breaks this contract. *)

type sim

val start :
  Mbac_stats.Rng.t ->
  config ->
  controller:Mbac.Controller.t ->
  make_source:(Mbac_stats.Rng.t -> start:float -> Mbac_traffic.Source.t) ->
  sim
(** Validate, reset the controller, and perform the initial admissions
    (or schedule the first Poisson arrival) exactly as {!run} does.
    [run] is [start] plus a {!step} loop with the stopping rules. *)

val step : sim -> unit
(** Process the earliest pending event: account the constant-load
    segment up to its time, then fire it (rate change, departure, or
    arrival, including any consequent admissions).
    @raise Invalid_argument if no event is pending (see
    {!has_pending}; cannot happen while flows exist). *)

val fold_decisions : sim -> unit
(** Fold the admission tests made since the last fold into the current
    shard's [mbac_*] decision counters ({!Link.fold_decisions}).  {!run}
    folds at its end and at each time-series window boundary; a caller
    driving a sim through {!start} and {!step} must fold it itself when
    done with it, or its decisions never reach telemetry.  A {!restore}d
    sim starts with nothing to fold. *)

val now : sim -> float
val load : sim -> float
(** Current aggregate bandwidth demand (piecewise constant between
    events: the value returned held since the last {!step}). *)

val flows : sim -> int
val events_processed : sim -> int
val has_pending : sim -> bool
val measurement : sim -> Measurement.t
(** The live overflow measurement (shared, not a copy). *)

type snapshot

val snapshot : sim -> snapshot
(** Deep copy of the full simulator state.  The live sim can keep
    running; the snapshot is unaffected. *)

val restore : ?rng:Mbac_stats.Rng.t -> snapshot -> sim
(** A fresh, independent sim continuing from the snapshot.  Every
    restore deep-copies again, so restoring the same snapshot twice
    yields two non-interfering sims.  [rng] replaces the random stream
    for all future draws (sources are re-bound to it); by default the
    clone replays the parent's stream from the snapshot point. *)
