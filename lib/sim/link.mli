(** One bufferless link: the paper's object, shared by both simulators.

    A link holds its admitted flows in a dense slot table (granted rate,
    flow key, generation, source, LIFO free stack), keeps the
    cross-section (n, Σr, Σr²) its controller measures incrementally,
    with a periodic resync from the slot table, records every
    load-constant segment into a {!Measurement} while tracking overflow
    episodes, and runs the controller's admission test.  {!Continuous_load} drives one link;
    [Mbac_net.Network] drives one per topology link.  Both drivers own
    their event queue, randomness and arrivals; everything that touches
    the link's state goes through this module, whose record types are
    [private] so only it can change them.

    Slot [s] is live iff [keys.(s) >= 0].  Its generation counts the
    flows that have left it, so an event stamped with a generation can
    be recognised as stale once its flow is gone.  The arrays are
    exposed for reading only. *)

(** Per-event floats, in an all-float record so their stores stay
    unboxed. *)
type hot = private {
  mutable now : float;  (** end of the last recorded segment *)
  mutable sum_rate : float;
  mutable sum_sq : float;
  mutable ovf_start : float;  (** [nan] when not in an overflow episode *)
  mutable ovf_excess : float;  (** ∫(load - capacity)dt over the episode *)
  mutable ovf_time : float;  (** total length of the closed episodes *)
}

type t = private {
  capacity : float;
  batch_length : float;
  max_flows : int;
  telemetry : bool;
  controller : Mbac.Controller.t;
  meas : Measurement.t;
  hot : hot;
  obs : Mbac.Observation.t;
      (** the cross-section shown to the controller, refreshed in place
          by {!observation}, {!observe}, {!admit}, {!release} and
          {!set_rate} *)
  mutable granted : Float.Array.t;  (** slot -> rate the link allocated *)
  mutable keys : int array;  (** slot -> flow key, [-1] when free *)
  mutable gens : int array;
  mutable sources : Mbac_traffic.Source.t array;
      (** slot -> the flow's source, {!no_source} when it has none *)
  mutable free : int array;  (** stack of vacant slots *)
  mutable free_top : int;
  mutable limit : int;  (** slots ever used (high-water mark) *)
  mutable n : int;
  mutable admitted : int;
  mutable blocked : int;
  mutable released : int;
  mutable updates : int;  (** {!set_rate} calls *)
  mutable events : int;  (** {!count_event} calls *)
  mutable ovf_episodes : int;
  mutable decisions : int;
      (** {!admissible} calls not yet folded into telemetry *)
  mutable decision_admits : int;
      (** of those, the ones whose controller verdict was admit *)
}

val slot_bits : int
(** Slots stay below [2^slot_bits], so drivers can pack them into event
    payloads. *)

val no_source : Mbac_traffic.Source.t
(** The one placeholder every slot without a flow source holds (a free
    slot, a transit reservation), told apart by identity
    ({!has_source}); it is never fired or copied. *)

val create :
  telemetry:bool ->
  capacity:float ->
  warmup:float ->
  batch_length:float ->
  max_flows:int ->
  Mbac.Controller.t ->
  t
(** An empty link at time 0.  Builds its {!Measurement} (point samples
    every [batch_length]), resets the controller and shows it the empty
    link.  With [telemetry], overflow episodes also update the
    [sim_overflow_*] metrics and emit [overflow_start]/[overflow_end]
    trace events.
    @raise Invalid_argument if [capacity] is not > 0, or on an invalid
    measurement setting. *)

val copy : t -> rng:Mbac_stats.Rng.t -> t
(** Independent deep copy; the controller is copied and every source is
    re-bound to [rng].  The copy starts with no unfolded decisions, so
    folding it never recounts the original's. *)

val observation : t -> Mbac.Observation.t
(** The cross-section at [hot.now]: the link's one observation,
    refreshed in place.  It is valid until the next call that refreshes
    it; copy it ({!Mbac.Observation.copy}) to keep it longer. *)

val observe : t -> Mbac.Observation.t
(** {!observation}, after showing it to the controller. *)

val admissible : t -> Mbac.Observation.t -> bool
(** The admission test: [n < Controller.admissible obs && n < max_flows].
    Counts one decision, and one controller admit when
    [Observation.count obs < Controller.admissible obs], in plain fields;
    {!fold_decisions} moves them to telemetry. *)

val fold_decisions : t -> unit
(** Add the decisions counted since the last fold to the current shard's
    [mbac_decisions_total], [mbac_admit_total] and [mbac_reject_total],
    and zero them.  A zero delta leaves its counter untouched, so a
    counter registers at the first fold after its first count.  Drivers
    call it where they fold their other totals; until then the shard
    lags the link. *)

val admit :
  t -> key:int -> rate:float -> source:Mbac_traffic.Source.t -> int
(** Take a slot for a flow of [rate] ([key >= 0]) and its [source]
    ({!no_source} for a reservation that has none), reusing the most
    recently freed slot, and show the controller ({!observe}) the
    cross-section with the flow in it.
    Returns the slot.
    @raise Invalid_argument past [2^slot_bits] concurrent flows. *)

val reject : t -> unit
(** Count one flow refused at this link. *)

val release : t -> int -> Mbac.Observation.t
(** Free a live slot (bumping its generation), notify the controller
    ([observe] and [on_depart]) and return the observation it saw. *)

val set_rate : t -> int -> float -> Mbac.Observation.t
(** Change a live slot's granted rate and show the controller the new
    cross-section, which is returned. *)

val granted : t -> int -> float
val gen : t -> int -> int
val source : t -> int -> Mbac_traffic.Source.t

val has_source : t -> int -> bool
(** The slot holds a flow source, not {!no_source}. *)

val record : t -> t1:float -> unit
(** Account the load held since [hot.now] on [[hot.now, t1)]: the
    measurement segment and the overflow episode it opens, extends or
    closes.  Then [hot.now = t1]. *)

val count_event : t -> unit
(** Count one event at this link; every 4,000,000th resyncs the sums. *)

val resync : t -> unit
(** Recompute Σr and Σr² from the slot table, in slot order. *)

val finish : t -> unit
(** Close an episode left open at [hot.now] (a truncated one). *)
