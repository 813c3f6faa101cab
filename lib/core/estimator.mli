(** Traffic-parameter estimators (§3 eqn (7), §4.1 eqn (23), §4.3).

    An estimator consumes the stream of {!Observation.t} cross-sections
    produced by the system (one per state-change event) and maintains an
    estimate of the per-flow mean and variance.  The controllers plug an
    estimator into the certainty-equivalent admission criterion. *)

type estimate = {
  mutable mu_hat : float;   (** estimated per-flow mean bandwidth *)
  mutable var_hat : float;  (** estimated per-flow bandwidth variance (>= 0) *)
}
(** The fields are mutable because {!current} refreshes and returns one
    cached record per estimator rather than allocating (admission
    decisions sit on the simulator's per-event path).  Read the fields
    immediately: they are valid until the next [observe] or [current]
    call on the same estimator. *)

type t
(** Plain data: each kind's state is a record of numbers (a ring of
    float arrays for {!sliding_window}), and {!with_prior} holds the
    estimator it wraps.  No closures, so two estimators can be compared
    structurally. *)

val name : t -> string
val observe : t -> Observation.t -> unit
val current : t -> estimate option
(** [None] until enough data has been seen (e.g. no observation yet, or
    fewer than 2 flows ever observed).  The returned record is reused
    across calls; see {!type:estimate}.

    {b Confinement:} the cached record makes [current] single-domain by
    construction — a reader in another domain can observe a torn update
    (one field refreshed, the other stale), since the two field stores
    are independent.  The same goes for every {!Controller}'s mutable
    state.  Code that publishes estimates across domains (the serving
    engine's measurement thread) must confine [observe]/[current] to one
    domain and hand other domains {!snapshot_estimate} values instead. *)

type snapshot = { mu : float; var : float }
(** An immutable copy of the estimate: safe to publish to other domains
    (e.g. through an [Atomic.t]) and to hold across later [observe]
    calls. *)

val snapshot_estimate : t -> snapshot option
(** Like {!current}, but allocates a fresh immutable {!snapshot} that
    never changes after it is returned.  Use on any path where the
    estimate outlives the next [observe]/[current] call or crosses a
    domain boundary. *)

val reset : t -> unit

val copy : t -> t
(** Independent copy of the estimator and its accumulated state (a field
    copy; a {!with_prior} copies the estimator it wraps); the original
    and the copy evolve separately from the split point.  Used by the
    simulator's snapshot/restore (rare-event splitting). *)

val memoryless : unit -> t
(** The paper's memoryless estimator (eqns (7)/(23)): the estimate is the
    cross-sectional mean/variance of the {e latest} observation. *)

val with_prior : mu:float -> var:float -> weight:float -> t -> t
(** [e]'s estimates smoothed toward the fixed prior ([mu], [var]):
    [weight *. mu +. (1. -. weight) *. mu_hat], the same for the
    variance, and no estimate while [e] has none. *)

val ewma : t_m:float -> t
(** First-order auto-regressive (exponentially weighted) filter with
    impulse response h(t) = (1/T_m) exp(-t/T_m) (§4.3), applied to the
    cross-sectional mean and variance signals.  The input signal is
    piecewise constant between observations, so the filter is advanced
    {e exactly}: est <- x_prev + (est - x_prev) exp(-dt/T_m).
    [t_m = 0.] degenerates to {!memoryless}.
    @raise Invalid_argument if [t_m < 0]. *)

val sliding_window : t_w:float -> t
(** Time-weighted average of the cross-sectional signals over the window
    [now - t_w, now] (a rectangular impulse response, the "measurement
    window" of Jamin et al. discussed in §6).
    @raise Invalid_argument if [t_w <= 0]. *)

val aggregate_only : t_m:float -> t
(** Estimator that may use only the {e aggregate} rate, not per-flow
    rates (the practical constraint discussed in §7).  The mean is the
    filtered aggregate divided by the flow count; the per-flow variance
    is inferred from the temporal fluctuation of the aggregate:
    Var_time(S) ~ n sigma^2 for independent homogeneous flows. *)
