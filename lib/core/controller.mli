(** Admission controllers.

    A controller is driven by the simulator (or a live system) through
    three entry points: [observe] on every state change, [admissible] when
    an admission decision is needed (the controller answers with the
    {e total} number of flows it would currently allow), and [on_depart]
    after a flow leaves.  Controllers are deliberately decoupled from
    traffic generation: they only ever see {!Observation.t}
    cross-sections.

    A controller is plain data: a name and one kind, a fixed count
    ({!perfect}, {!peak_rate}), a certainty-equivalent rule with its
    estimator ({!of_rule} and every scheme built on it), or the
    windowed maximum of {!measured_sum}.  When tracing is on, every
    [admissible] call emits a sampled ["decision"] trace event carrying
    the controller name, the admissible count, and the cross-sectional
    m̂/σ̂ (see OBSERVABILITY.md).  The [mbac_decisions_total] /
    [mbac_admit_total] / [mbac_reject_total] counters are not bumped
    here: they count the tests of a simulator link
    ([Mbac_sim.Link.admissible]), so a direct [admissible] call outside
    a link is not counted. *)

type t

val name : t -> string
val observe : t -> Observation.t -> unit

val admissible : t -> Observation.t -> int
(** Maximum number of flows the controller would allow in the system at
    this instant.  The caller admits while [n < admissible]. *)

val on_depart : t -> Observation.t -> unit
(** Called just after a flow departs: it ends an {!of_rule}
    [~back_off:true] block. *)

val reset : t -> unit

val copy : t -> t
(** Independent copy of the controller and its accumulated state
    (estimator memory, windowed maxima, back-off flag); original and
    copy evolve separately from the split point.  Used by the
    simulator's snapshot/restore (rare-event splitting).  A {!custom}
    copy shares the function and whatever it closes over. *)

val custom : name:string -> (Observation.t -> int) -> t
(** {b Test-only.}  [custom ~name f] admits while [n < f obs], with no
    state of its own to observe, reset or copy: for tests that count or
    fuzz the calls a simulator makes.  It is the one controller that
    holds a function, so it cannot be compared structurally. *)

(** {1 The paper's schemes} *)

val perfect : Params.t -> t
(** Omniscient admission control: always allows exactly m* (eqn (4)).
    The yardstick every measurement-based scheme is compared against. *)

val of_rule :
  ?back_off:bool -> name:string -> capacity:float -> Criterion.rule ->
  Estimator.t -> t
(** The certainty-equivalent controller every measurement-based scheme
    below is: [admissible] is {!Criterion.limit} of [rule] on the
    estimator's current estimate, or the cautious {!Criterion.bootstrap}
    while that is not {!Criterion.usable}.  [name] labels it in traces,
    series and banners.  [~back_off:true] adds the "one out, one in"
    rule: once M <= n, it answers n until the next departure. *)

val certainty_equivalent : capacity:float -> p_ce:float -> Estimator.t -> t
(** The generic certainty-equivalent MBAC: plug any estimator into the
    Gaussian criterion (eqn (6)) run at target [p_ce]
    ({!Criterion.gaussian}).
    @raise Invalid_argument if [p_ce] is outside (0, 0.5]. *)

val memoryless : capacity:float -> p_ce:float -> t
(** [certainty_equivalent] with the memoryless estimator — the scheme
    whose penalty Prop 3.3 and eqn (33) quantify. *)

val with_memory : capacity:float -> p_ce:float -> t_m:float -> t
(** [certainty_equivalent] with the exponential filter of memory [t_m]. *)

val robust : Params.t -> t
(** The paper's recommended design (§5.3): memory window T_m = T~_h and
    the adjusted target p_ce from inverting eqn (38)
    ({!Criterion.adjusted}, never below alpha_q) — delivers ~p_q across
    a wide range of unknown correlation time-scales. *)

(** {1 Baselines from related work (§6)} *)

val peak_rate : capacity:float -> peak:float -> t
(** Lossless peak-rate allocation — no measurement, no multiplexing gain. *)

val measured_sum :
  capacity:float -> utilization_target:float -> window:float -> peak:float ->
  t
(** Jamin et al. '95, simplified to the bufferless setting: admit a new
    flow iff (max aggregate load over the last [window]) + [peak]
    <= [utilization_target *. capacity].  The windowed maximum uses
    rotating sub-blocks, as in the original algorithm's
    measurement/sampling windows.
    @raise Invalid_argument if [utilization_target] outside (0,1] or
    [window <= 0] or [peak <= 0]. *)

val hoeffding :
  capacity:float -> p_ce:float -> peak:float -> Estimator.t -> t
(** Hoeffding-bound acceptance region ({!Criterion.hoeffding}): admit
    while M mu_hat + peak sqrt(M ln(1/p_ce) / 2) <= capacity — a
    conservative distribution-free criterion (cf. Floyd's
    admission-control note), using only the measured mean and the
    declared peak.
    @raise Invalid_argument if [p_ce] is outside (0, 0.5] or
    [peak <= 0] (or NaN). *)

val chernoff :
  capacity:float -> p_ce:float -> Estimator.t -> t
(** Chernoff/effective-bandwidth acceptance (Hui [14]) with a Gaussian
    MGF built from the measured mean and variance: the paper's criterion
    run at alpha = sqrt(2 ln(1/p_ce)) — uniformly more conservative than
    the Q^{-1}(p_ce) criterion, exact in exponential order in the
    large-deviations regime ({!Criterion.chernoff}).
    @raise Invalid_argument if [p_ce] is outside (0, 0.5]. *)

val gkk :
  capacity:float -> p_ce:float -> prior_mu:float -> prior_var:float ->
  prior_weight:float -> t
(** A Gibbens–Kelly–Key-style scheme: memoryless estimates smoothed
    toward a fixed prior ({!Estimator.with_prior}, weight in [0,1])
    under the Gaussian criterion at [p_ce], plus the "one out, one in"
    back-off of {!of_rule}: once the criterion judges the system full,
    admissions are blocked until a departure.
    @raise Invalid_argument if [p_ce] is outside (0, 0.5] or
    [prior_weight] outside [0,1]. *)
