(** The aggregate rate of superposed sources. *)

val sample_path :
  Mbac_stats.Rng.t ->
  (Mbac_stats.Rng.t -> start:float -> Source.t) ->
  n_sources:int ->
  horizon:float ->
  dt:float ->
  float array
(** [sample_path rng make ~n_sources ~horizon ~dt] superposes [n_sources]
    fresh sources and records the aggregate rate every [dt] up to
    [horizon] (used by tests and examples to verify aggregate Gaussianity
    and autocorrelation).  Sources advance by firing their own change
    events; the returned array has [floor(horizon/dt) + 1] samples. *)
