(** Two-state on/off fluid source: peak rate while on, silent while off,
    exponential sojourn times.  The two-state case of a Markov-modulated
    fluid source, implemented directly for speed and clarity (the test
    suite checks its mean and variance against a K-state one). *)

type params = Source.onoff = {
  peak : float;      (** emission rate while on *)
  mean_on : float;   (** mean on-period duration *)
  mean_off : float;  (** mean off-period duration *)
}

val mean : params -> float
(** peak * mean_on / (mean_on + mean_off). *)

val variance : params -> float
(** peak^2 * p * (1 - p) with p the on-probability. *)

val autocorrelation : params -> float -> float
(** exp(-|t| (1/mean_on + 1/mean_off)): the on/off chain relaxes at the
    sum of the transition rates. *)

val create : Mbac_stats.Rng.t -> params -> start:float -> Source.t
(** @raise Invalid_argument unless all three parameters are positive. *)
