(** Fluid traffic sources with piecewise-constant rates.

    All traffic in this reproduction is fluid: a source holds a constant
    bandwidth until its next {e rate-change epoch} (a renegotiation, a
    Markov-chain transition, a new trace segment, ...).  The simulator
    only needs three things from a source: its current rate, the absolute
    time of its next change, and a way to fire that change.

    A source is plain data: one variant over the models ({!Rcbr},
    {!Onoff}, {!Ou_source}, {!Trace_source}, {!Modulated}), each a record
    of the model's parameters, its RNG and its mutable state, beside the
    all-float rate/next-change pair every kind shares. *)

type t

val rate : t -> float
(** Current bandwidth demand. *)

val next_change : t -> float
(** Absolute time of the next rate change. *)

val fire : t -> now:float -> unit
(** Execute the pending rate change.  [now] must be the source's
    [next_change] time (asserted), and the following change must come
    after it (asserted). *)

val fire_until : t -> upto:float -> unit
(** Fire every change epoch at or before [upto], each at its own epoch
    time, in one pass.  Draw-for-draw identical to looping
    [fire t ~now:(next_change t)], so replacing such a loop never
    perturbs a seeded run. *)

val copy : t -> Mbac_stats.Rng.t -> t
(** A field copy of the source's state (a modulated source copies its
    inner one) that draws from the given RNG, so parent and clone
    diverge on genealogy-tagged streams; parameters, traces and
    schedules are shared.  Used by the simulator's snapshot/restore
    (rare-event splitting).  After the same draws from equal RNG states,
    a copy and its original satisfy [compare a b = 0]. *)

(** {1 The models}

    The constructors behind {!Rcbr.create}, {!Onoff.create},
    {!Ou_source.create}, {!Trace_source.create_at_offset} and
    {!Modulated.create}, which document them. *)

type rcbr = { mu : float; sigma : float; t_c : float }

val rcbr : Mbac_stats.Rng.t -> rcbr -> start:float -> t

type onoff = { peak : float; mean_on : float; mean_off : float }

val onoff : Mbac_stats.Rng.t -> onoff -> start:float -> t

type ou = { mu : float; sigma : float; t_c : float; dt : float }

val ou : Mbac_stats.Rng.t -> ou -> start:float -> t

val playback : Trace.t -> offset:float -> start:float -> t

type schedule

val schedule : (float * float) array -> schedule
val factor_at : schedule -> float -> float
val modulated : start:float -> schedule -> t -> t

(** {1 Test-only} *)

(** The rate/next-change pair, all floats, so stores stay unboxed. *)
module State : sig
  type t

  val set : t -> rate:float -> next_change:float -> unit
  (** Record the outcome of a change epoch: the new rate and the
      {e absolute} time of the following change. *)
end

val custom :
  Mbac_stats.Rng.t ->
  phase:int ->
  rate:float ->
  next_change:float ->
  (Mbac_stats.Rng.t -> int -> State.t -> now:float -> int) ->
  t
(** {b Test-only.}  [custom rng ~phase ~rate ~next_change step] is a
    source whose hidden state is one integer, its phase: each change
    epoch calls [step rng phase st ~now], which must {!State.set} the
    new rate and the following change (after [now]) and return the new
    phase.  {!copy} copies the phase and rebinds the RNG, and shares
    [step]: for the test suite's oracle models (a K-state Markov-fluid
    source) that no data kind covers.  It is the one kind that holds a
    function: copies of one custom source compare with [compare], which
    takes their shared function as equal to itself, and [=] raises. *)
