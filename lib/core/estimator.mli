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

val cross_mean : Observation.t -> float
(** The memoryless mean estimate mu_hat(t) = sum_rate / n of one
    cross-section (eqn (23)); [nan] when [n = 0]. *)

val cross_variance : Observation.t -> float
(** The memoryless unbiased variance estimate
    sigma_hat^2(t) = (sum_sq - n mu_hat^2) / (n - 1) of one cross-section
    (eqn (23)), clipped at 0 against roundoff; [0.] when [n < 2]. *)

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

    {b Confinement:} the cached record is refreshed by two independent
    field stores, so [current] is single-threaded by construction, as is
    every {!Controller}'s mutable state: code that shares an estimator
    between threads (the serving engine's connections and measurement
    timer) must let one thread at a time use it. *)

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
