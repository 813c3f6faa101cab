(** The standard Gaussian distribution in the paper's notation:
    density [phi], upper-tail probability [q] (the paper's Q-function,
    eqn (2)), and its inverse [q_inv] (the paper's alpha_q = Q^{-1}(p_q)). *)

val phi : float -> float
(** [phi x] is the N(0,1) density (1/sqrt(2 pi)) exp(-x^2/2) (eqn (1)). *)

val cdf : float -> float
(** [cdf x] is Pr(N(0,1) <= x). *)

val q : float -> float
(** [q x] is the complementary cdf Pr(N(0,1) > x) (eqn (2)).  Accurate in
    the far tail: usable down to [q 37] ~ 1e-300. *)

val log_q : float -> float
(** [log_q x = log (q x)], accurate even when [q x] underflows. *)

val q_inv : float -> float
(** [q_inv p] is the unique [x] with [q x = p], for [0 < p < 1].
    The paper's alpha_q.  Accurate to ~1e-13 relative via an Acklam
    initialisation refined by a Halley step.
    @raise Invalid_argument if [p] is outside (0,1). *)

val q_tail_approx : float -> float
(** [q_tail_approx x = phi x /. x], the classical tail approximation
    Q(x) ~ phi(x)/x used repeatedly in the paper's closed forms. *)

val overflow_probability : capacity:float -> mean:float -> std:float -> float
(** [overflow_probability ~capacity ~mean ~std] is
    Pr(N(mean, std^2) > capacity) = Q((capacity - mean)/std) — the
    Gaussian-approximation overflow probability used throughout the paper.
    Returns [1.0] when [std = 0] and [mean > capacity], [0.0] when
    [std = 0] and [mean <= capacity]. *)
