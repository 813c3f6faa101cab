(** The Gaussian admission criterion.

    The number of admissible flows M is the largest value satisfying
    Q((c - M mu)/(sigma sqrt M)) <= p, i.e. solving eqn (4) (perfect
    knowledge) or eqn (6) (certainty equivalence with estimates).  The
    positive root of the underlying quadratic gives the closed form of
    eqn (42). *)

val admissible_real : capacity:float -> mu:float -> sigma:float -> alpha:float -> float
(** The real-valued solution
    M = ((sqrt(sigma^2 alpha^2 + 4 c mu) - sigma alpha) / (2 mu))^2 of
    eqn (42), where [alpha = Q^{-1}(p)].  [sigma = 0] gives [c / mu].
    Returns [0.] when [capacity <= 0].
    @raise Invalid_argument if [mu <= 0] or [sigma < 0]. *)

val admissible : capacity:float -> mu:float -> sigma:float -> alpha:float -> int
(** Integer part of {!admissible_real} (never negative). *)

(** {1 The certainty-equivalent admission rule}

    Every measurement-based scheme admits while [n < M], where M solves
    eqn (6) for the current estimate: eqn (42) with [sigma alpha]
    replaced by [spread alpha].  A {!rule} is that [alpha] and spread;
    the robust recipe (§5.3) and the §6 Chernoff baseline change only
    [alpha], the Hoeffding baseline only the spread.

    An estimate is {e usable} when μ̂ > 0.  Until one exists every scheme
    follows the {e cautious bootstrap} M = n + 1, admitting one flow at
    a time. *)

type rule

val gaussian : p_ce:float -> rule
(** alpha = Q{^-1}(p_ce), spread σ̂: the paper's criterion.
    @raise Invalid_argument unless 0 < p_ce <= 0.5. *)

val adjusted : alpha_ce:float -> rule
(** alpha = [alpha_ce] given directly, spread σ̂: the robust recipe and
    the memory sweeps, whose Q(alpha_ce) may underflow. *)

val chernoff : p_ce:float -> rule
(** alpha = sqrt(2 ln(1/p_ce)), spread σ̂: Chernoff acceptance with a
    Gaussian MGF.  @raise Invalid_argument unless 0 < p_ce <= 0.5. *)

val hoeffding : p_ce:float -> peak:float -> rule
(** alpha = 1, fixed spread peak sqrt(ln(1/p_ce) / 2): Hoeffding's
    distribution-free bound for flows of peak rate [peak].
    @raise Invalid_argument unless 0 < p_ce <= 0.5 and [peak > 0]. *)

val usable : Estimator.estimate -> bool
(** [usable e] is [e.mu_hat > 0.] (false for NaN). *)

val bootstrap : int -> int
(** [bootstrap n = n + 1]: M with [n] flows and no usable estimate. *)

val limit : rule -> capacity:float -> Estimator.estimate -> int
(** M under [rule] for the usable estimate [e]: {!admissible} at
    [e.mu_hat] and the rule's alpha and spread ([sqrt e.var_hat] when
    measured).  Inlined and allocation-free, for the per-decision path;
    the estimate is passed as its record, so no float is boxed at the
    call even where it is not inlined.
    @raise Invalid_argument if [mu_hat <= 0]. *)

val overflow_probability : capacity:float -> mu:float -> sigma:float -> m:float -> float
(** p_f(mu, sigma, m) = Q((c - m mu)/(sigma sqrt m)) — the §3.1 map from a
    flow count to an overflow probability under the Gaussian
    approximation. *)

val m_star_real : Params.t -> float
(** Real-valued m* under perfect knowledge (eqn (4) solved exactly). *)

val m_star : Params.t -> int
(** floor of {!m_star_real}: the perfect-knowledge admissible count. *)

val m_star_approx : Params.t -> float
(** The heavy-traffic expansion m* ~ n - (sigma alpha_q / mu) sqrt n
    (eqn (5)). *)

val peak_rate_count : capacity:float -> peak:float -> int
(** Flows admitted under lossless peak-rate allocation.
    @raise Invalid_argument if [peak <= 0]. *)
