(** Random-variate samplers.  Each sampler draws from an explicit {!Rng.t}
    so simulations stay deterministic and replicable. *)

val uniform : Rng.t -> lo:float -> hi:float -> float
(** Uniform on [lo, hi).  @raise Invalid_argument if [hi < lo]. *)

val bernoulli : Rng.t -> p:float -> bool
(** [true] with probability [p]. *)

val exponential : Rng.t -> mean:float -> float
(** Exponential with the given mean (the paper's holding times and RCBR
    renegotiation intervals).  @raise Invalid_argument if [mean <= 0]. *)

val gaussian : Rng.t -> mu:float -> sigma:float -> float
(** N(mu, sigma^2) via the Marsaglia polar method.
    @raise Invalid_argument if [sigma < 0]. *)

val gaussian_truncated_nonneg : Rng.t -> mu:float -> sigma:float -> float
(** N(mu, sigma^2) conditioned on being >= 0, by rejection.  This is the
    marginal used for RCBR rates (the paper's Gaussian marginal with
    sigma/mu = 0.3 has negligible negative mass; we truncate for physical
    sanity).  @raise Invalid_argument if [mu < 0] (acceptance would vanish). *)

val lognormal : Rng.t -> mu_log:float -> sigma_log:float -> float
(** exp(N(mu_log, sigma_log^2)). *)

val lognormal_of_moments : Rng.t -> mean:float -> std:float -> float
(** Lognormal parameterised by its {e linear-space} mean and standard
    deviation (used for video frame-size marginals). *)

val categorical : Rng.t -> weights:float array -> int
(** Index drawn proportionally to non-negative [weights].
    @raise Invalid_argument on empty or all-zero weights. *)
