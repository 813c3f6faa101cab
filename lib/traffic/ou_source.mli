(** Discretised Ornstein–Uhlenbeck rate process.

    The rate is sampled on a fixed grid of period [dt] from the exact OU
    transition kernel, so the {e sampled} process has autocorrelation
    exactly exp(-|t|/t_c) at grid multiples; between samples the rate is
    held constant (fluid model).  Rates are clipped at 0.  Useful as an
    alternative source whose aggregate matches the paper's limiting
    process even for a single flow. *)

type params = Source.ou = {
  mu : float;
  sigma : float;
  t_c : float;  (** correlation time-scale *)
  dt : float;   (** sampling period; should be << t_c *)
}

val default_params : mu:float -> params
(** sigma = 0.3 mu, t_c = 1.0, dt = t_c / 10. *)

val create : Mbac_stats.Rng.t -> params -> start:float -> Source.t
(** @raise Invalid_argument unless [sigma >= 0], [t_c > 0], [dt > 0]. *)
