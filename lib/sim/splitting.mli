(** Rare-event acceleration: fixed-effort multilevel importance
    splitting for the stationary overflow probability.

    The time fraction with load above capacity is decomposed along an
    excursion above a base level [B = m + z0 (c - m)] ([m] the
    calibrated mean load, [c] the capacity):

    {v p_f = nu_1 x prod_{l=1}^{K-1} p_l x E[T_over] v}

    - [nu_1]: rate of excursion starts — up-crossings of the first
      threshold [L_1] after the load last touched [B] — measured by a
      pilot run that also harvests entrance snapshots at [L_1];
    - [p_l]: probability an excursion entering level [l] reaches
      [L_{l+1}] before falling back to [B], estimated by a fixed number
      of clone trials restored ({!Continuous_load.restore}) from the
      previous stage's entrance pool;
    - [E[T_over]]: expected time above capacity per excursion reaching
      [L_K = c], from top-stage trials run until the excursion ends.

    Thresholds sit at equal steps of the normalized load
    [z = (load - m)/(c - m)]: [z_j = z0 + (1 - z0) j / K], so
    [L_K = c] exactly.

    Determinism: every trial draws from
    [Rng.derive ~seed ~tag:"<seed_tag>:level=<l>:trial=<i>"], entrances
    are assigned by trial index, and the work is fanned out in
    [jobs]-independent chunks through {!Parallel.run_tasks}, so results
    are bit-identical for every [jobs] value. *)

type config = {
  base_level : float;       (** excursion base [z0] in (0,1); default 0.25 *)
  levels : int;             (** [K >= 1] thresholds; [L_K = capacity] *)
  trials_per_level : int;   (** fixed effort per stage *)
  pilot_time : float;       (** simulated time of the pilot's collection
                                window (after warmup + calibration) *)
  calibration_time : float; (** window measuring the mean load [m]
                                before thresholds are fixed *)
  max_pool : int;           (** entrance snapshots kept per level *)
  max_trial_events : int;   (** safety cap per clone trial; hitting it
                                counts the trial as failed (conservative)
                                and increments [truncated_trials] *)
  batches : int;            (** batch count for per-stage variance *)
  seed_tag : string;        (** prefix of all derived RNG stream tags *)
}

val default_config : pilot_time:float -> config
(** [base_level = 0.25], [levels = 6], [trials_per_level = 2048],
    [calibration_time = pilot_time / 10], [max_pool = 64],
    [max_trial_events = 1_000_000], [batches = 16],
    [seed_tag = "splitting"]. *)

type level_stat = {
  threshold : float;
  trials : int;
  successes : int;
  p_hat : float;
  rel_var : float;     (** relative variance of [p_hat] (batch means) *)
  pool : int;          (** entrance-pool size the stage drew from *)
  level_events : int;
}

type result = {
  p_f : float;             (** splitting estimate; [0.] when a stage died *)
  ci_rel : float;          (** 95% relative CI half-width via the delta
                               method across independent stages (the
                               excursion-rate term uses the Poisson
                               approximation [1/excursions]);
                               [infinity] when degenerate *)
  mean_load : float;       (** calibrated [m] *)
  base_threshold : float;  (** [B] *)
  thresholds : float array;
  excursion_rate : float;  (** [nu_1], per unit simulated time *)
  excursions : int;        (** entrances observed by the pilot *)
  mean_overflow_time : float;
  top_trials : int;
  level_stats : level_stat array;
  pilot_events : int;
  pilot_p_f : float;       (** direct time-fraction estimate over the
                               pilot window (reference only) *)
  total_events : int;      (** pilot + all clone trials *)
  truncated_trials : int;
}

val run :
  ?jobs:int ->
  seed:int ->
  config ->
  Continuous_load.config ->
  controller:Mbac.Controller.t ->
  make_source:(Mbac_stats.Rng.t -> start:float -> Mbac_traffic.Source.t) ->
  result
(** Pilot, intermediate stages, top stage; see the module preamble.
    [sim_cfg.warmup] is honoured before calibration.  Trials run on
    {!Mbac.Controller.copy}s of the controller, and [make_source] must
    satisfy the {!Continuous_load} aliasing contract.
    @raise Invalid_argument on a malformed [config], or when the
    calibrated mean load is not below capacity. *)

val pp_result : Format.formatter -> result -> unit
