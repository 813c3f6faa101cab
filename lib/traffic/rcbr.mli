(** The paper's simulation source (§5.2): Renegotiated CBR traffic.

    The rate is constant over intervals whose lengths are i.i.d.
    exponential with mean [t_c]; at each interval boundary a fresh rate is
    drawn from a Gaussian marginal with the given [mu] and [sigma]
    (truncated at 0 — with the paper's sigma/mu = 0.3 the truncated mass
    is ~4e-4).  Because the renewal epochs form a Poisson process, the
    rate autocorrelation is exactly rho(t) = exp(-|t|/t_c) (eqn (31)),
    i.e. the aggregate limit is the Ornstein–Uhlenbeck process the paper
    analyses. *)

type params = Source.rcbr = {
  mu : float;      (** marginal mean rate *)
  sigma : float;   (** marginal standard deviation *)
  t_c : float;     (** mean renegotiation interval = correlation time-scale *)
}

val default_params : mu:float -> params
(** The paper's setting: [sigma = 0.3 *. mu], [t_c = 1.0]. *)

val create : Mbac_stats.Rng.t -> params -> start:float -> Source.t
(** A fresh source at time [start], with the initial rate drawn from the
    stationary marginal and the first renegotiation scheduled
    exponentially after [start].
    @raise Invalid_argument if [mu < 0], [sigma < 0] or [t_c <= 0]. *)

val autocorrelation : params -> float -> float
(** [autocorrelation p t = exp (-. |t| /. p.t_c)]. *)
