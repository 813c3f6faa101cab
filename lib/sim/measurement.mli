(** Overflow measurement with the paper's §5.2 methodology.

    The aggregate load is piecewise constant, so the overflow probability
    is measured {e exactly} as the time-weighted fraction of (post-warmup)
    time during which the load exceeds capacity.  Confidence intervals
    come from batch means; the two stopping rules are the paper's:

    - {b Converged}: the 95% CI is within ±20% of the estimated mean;
    - {b Below-target}: the estimate plus its CI is at least two orders
      of magnitude below the target, in which case a Gaussian fit
      Q((c - mu_S)/sigma_S) of the measured aggregate is reported
      instead (direct counting would need astronomical run lengths). *)

type t

val create :
  ?sample_spacing:float ->
  capacity:float -> warmup:float -> batch_length:float -> unit -> t
(** [sample_spacing], if given, additionally runs the paper's
    point-sampling estimator: the overflow indicator is sampled on a
    fixed grid of that spacing (§5.2 samples every
    2 max(T~_h, T_m, T_c)); {!point_fraction} reports it.  The
    time-weighted estimator is always on.
    @raise Invalid_argument on non-positive capacity/batch_length/
    sample_spacing or negative warmup. *)

val copy : t -> t
(** Independent deep copy (for simulator snapshot/restore). *)

val record : t -> t0:float -> t1:float -> load:float -> unit
(** Account for a constant [load] on [t0, t1).  Portions before the
    warmup deadline are discarded (segments straddling it are split). *)

val measured_time : t -> float
val overflow_fraction : t -> float
(** Direct time-weighted estimate of p_f; [nan] before any batch closes. *)

val point_fraction : t -> float
(** Point-sampled estimate of p_f (paper's §5.2 sampling); [nan] when no
    [sample_spacing] was configured or no samples have been taken yet.
    For a piecewise-constant load both estimators converge to the same
    limit; point sampling merely discards information. *)

val point_samples : t -> int

val load_mean : t -> float
val load_std : t -> float

val gaussian_fit_overflow : t -> float
(** Q((c - load_mean)/load_std) — the paper's small-p_f fallback. *)

val relative_half_width : t -> confidence:float -> float
val batches : t -> int

type verdict =
  | Running
      (** not enough evidence yet *)
  | Converged of { p_f : float; ci_rel : float }
      (** direct estimate met the CI criterion *)
  | Below_target of { p_f_fit : float; upper_bound : float }
      (** estimate + CI at least two orders below target; Gaussian fit
          reported, with the direct upper bound for reference *)

val check_stop :
  ?confidence:float -> ?rel_ci:float -> ?min_batches:int -> t ->
  target:float -> verdict
(** Defaults: [confidence = 0.95], [rel_ci = 0.2], [min_batches = 10]. *)

val final_estimate : t -> float * [ `Direct | `Gaussian_fit ]
(** Best available estimate when the run ends (converged or not):
    the direct fraction if it is positive, otherwise (no overflow
    measured, or no batch yet) the Gaussian fit. *)
