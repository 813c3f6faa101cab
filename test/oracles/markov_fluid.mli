(** K-state Markov-modulated fluid sources.

    The source emits at rate [rates.(i)] while a continuous-time Markov
    chain with generator [generator] sits in state [i].  This is the
    classical model for which the paper's functional CLT assumption B.6
    is known to hold (§4, appendix B). *)

type params = {
  generator : float array array; (** CTMC generator: rows sum to 0 *)
  rates : float array;           (** per-state emission rate *)
}

val validate : params -> unit
(** @raise Invalid_argument on malformed generators (non-square, negative
    off-diagonals, rows not summing to ~0) or mismatched [rates]. *)

val stationary : params -> float array
(** Stationary distribution of the modulating chain. *)

val mean : params -> float
(** Stationary mean rate. *)

val variance : params -> float
(** Stationary rate variance. *)

val create :
  Mbac_stats.Rng.t -> params -> start:float -> Mbac_traffic.Source.t
(** A source started in a state drawn from the stationary distribution. *)
