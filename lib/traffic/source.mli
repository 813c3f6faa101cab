(** Fluid traffic sources with piecewise-constant rates.

    All traffic in this reproduction is fluid: a source holds a constant
    bandwidth until its next {e rate-change epoch} (a renegotiation, a
    Markov-chain transition, a new trace segment, ...).  The simulator
    only needs three things from a source: its current rate, the absolute
    time of its next change, and a way to fire that change.  Concrete
    models ({!Rcbr}, {!Onoff}, {!Ou_source}, {!Trace_source}) build
    values of this one type. *)

type t

(** The mutable part of a source, updated in place on each change epoch.
    All-float so stores stay unboxed on the simulator's hot path. *)
module State : sig
  type t

  val set : t -> rate:float -> next_change:float -> unit
  (** Record the outcome of a change epoch: the new rate and the
      {e absolute} time of the following change. *)
end

val create :
  ?copy:(Mbac_stats.Rng.t -> t) ->
  mean:float ->
  variance:float ->
  rate0:float ->
  next_change0:float ->
  step:(State.t -> now:float -> unit) ->
  unit ->
  t
(** [create ~mean ~variance ~rate0 ~next_change0 ~step ()] builds a
    source whose nominal stationary statistics are [mean]/[variance],
    with initial rate [rate0] holding until [next_change0].
    [step st ~now] is called each time the change epoch is reached and
    must call {!State.set} with the new rate and the absolute time of
    the following change (which must exceed [now]).

    [copy rng] must rebuild the source around a deep copy of the model's
    hidden sampler state, drawing all future randomness from [rng]; the
    returned source's visible rate/next-change/peak-hint are overwritten
    by {!copy} afterwards, so the values passed to [create] inside the
    copy are dummies.  It must not draw from any RNG during
    construction.  Omitting it makes {!copy} raise. *)

val copy : t -> Mbac_stats.Rng.t -> t
(** Deep copy of the source's full state (visible rate/next-change and
    the model's hidden sampler state); the copy draws all future
    randomness from the given RNG, so parent and clone diverge on
    genealogy-tagged streams.  Used by the simulator's
    snapshot/restore (rare-event splitting).
    @raise Invalid_argument for a source built without [~copy]. *)

val rate : t -> float
(** Current bandwidth demand. *)

val next_change : t -> float
(** Absolute time of the next rate change. *)

val fire : t -> now:float -> unit
(** Execute the pending rate change.  [now] must be the source's
    [next_change] time (asserted). *)

val fire_until : t -> upto:float -> unit
(** Fire every change epoch at or before [upto], each at its own epoch
    time, in one pass.  Draw-for-draw identical to looping
    [fire t ~now:(next_change t)], so replacing such a loop never
    perturbs a seeded run; it only hoists the per-fire dispatch out of
    the loop. *)

val mean : t -> float
(** Nominal stationary mean rate of the model that built this source. *)

val variance : t -> float
(** Nominal stationary rate variance. *)

val peak_hint : t -> float
(** A declared "peak rate" for baseline schemes that need one
    (mean + 3 std by default; models may override via {!set_peak_hint}). *)

val set_peak_hint : t -> float -> unit
